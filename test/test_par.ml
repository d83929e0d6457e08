(* The deterministic-reduction contract of lib/par: for a fixed seed,
   every parallel surface (plain samplers, S2BDD descents, decomposed
   subproblems) returns bit-identical results at any jobs value.
   Also: Par.chunks / Par.Pool edge cases and a statistical regression
   of the parallel MC sampler against the exact BDD value. *)

open Testutil
module S = Netrel.S2bdd
module R = Netrel.Reliability
module D = Workload.Datasets

let jobs_values = [ 1; 2; 8 ]

(* Everything except [jobs_used], which intentionally varies. *)
let same_estimate (a : Mcsampling.estimate) (b : Mcsampling.estimate) =
  Float.equal a.Mcsampling.value b.Mcsampling.value
  && a.Mcsampling.samples_used = b.Mcsampling.samples_used
  && a.Mcsampling.hits = b.Mcsampling.hits
  && a.Mcsampling.distinct = b.Mcsampling.distinct
  && Float.equal a.Mcsampling.variance_estimate b.Mcsampling.variance_estimate
  && a.Mcsampling.chunk_samples = b.Mcsampling.chunk_samples

let all_equal ~eq = function
  | [] | [ _ ] -> true
  | x :: rest -> List.for_all (eq x) rest

(* ---- Par.chunks ---- *)

let test_chunks_cover () =
  List.iter
    (fun (total, target) ->
      let cs = Par.chunks ~total ~target in
      let expect_n = (total + target - 1) / target in
      Alcotest.(check int)
        (Printf.sprintf "chunk count %d/%d" total target)
        expect_n (Array.length cs);
      let next = ref 0 and mn = ref max_int and mx = ref 0 in
      Array.iter
        (fun (off, len) ->
          Alcotest.(check int) "contiguous" !next off;
          Alcotest.(check bool) "positive length" true (len > 0);
          mn := min !mn len;
          mx := max !mx len;
          next := off + len)
        cs;
      Alcotest.(check int) "covers total" total !next;
      Alcotest.(check bool) "balanced" true (!mx - !mn <= 1))
    [ (1, 4096); (4096, 4096); (4097, 4096); (10_000, 4096); (10_000, 1);
      (7, 3); (5, 10) ]

let test_chunks_empty () =
  Alcotest.(check int) "total = 0" 0 (Array.length (Par.chunks ~total:0 ~target:4096))

let test_chunks_invalid () =
  Alcotest.check_raises "total < 0"
    (Invalid_argument "Par.chunks: total < 0") (fun () ->
      ignore (Par.chunks ~total:(-1) ~target:10));
  Alcotest.check_raises "target < 1"
    (Invalid_argument "Par.chunks: target < 1") (fun () ->
      ignore (Par.chunks ~total:10 ~target:0))

(* ---- Par.Pool ---- *)

let test_pool_basic () =
  List.iter
    (fun jobs ->
      Par.Pool.with_pool ~jobs (fun p ->
          (* More tasks than agents, fewer tasks than agents, one, none. *)
          List.iter
            (fun n ->
              let got = Par.Pool.map p n (fun i -> i * i) in
              Alcotest.(check (array int))
                (Printf.sprintf "map jobs=%d n=%d" jobs n)
                (Array.init n (fun i -> i * i))
                got)
            [ 0; 1; 3; 17 ]))
    [ 1; 2; 8 ]

let test_pool_jobs_exceed_tasks () =
  (* jobs > samples: the pool must not hang waiting for work that does
     not exist, and every index must be computed exactly once. *)
  let got = Par.run ~jobs:8 3 (fun i -> 10 + i) in
  Alcotest.(check (array int)) "jobs > tasks" [| 10; 11; 12 |] got

let test_pool_exception () =
  Par.Pool.with_pool ~jobs:3 (fun p ->
      Alcotest.check_raises "first failure re-raised" (Failure "boom")
        (fun () -> ignore (Par.Pool.map p 5 (fun i -> if i = 2 then failwith "boom" else i)));
      (* The pool must survive a failed batch. *)
      Alcotest.(check (array int)) "pool usable after failure"
        [| 0; 1; 2 |]
        (Par.Pool.map p 3 Fun.id))

let test_effective_jobs_invalid () =
  Alcotest.check_raises "jobs = 0"
    (Invalid_argument "Par.effective_jobs: jobs < 1") (fun () ->
      ignore (Par.effective_jobs 0))

(* ---- bit-identical estimates across jobs ---- *)

let mc ~jobs ~seed ~samples g ts =
  Mcsampling.monte_carlo ~seed ~jobs g ~terminals:ts ~samples

let ht ~jobs ~seed ~samples g ts =
  Mcsampling.horvitz_thompson ~seed ~jobs g ~terminals:ts ~samples

let prop_mc_jobs_equivalent =
  QCheck.Test.make ~name:"MC bit-identical at jobs 1/2/8" ~count:25
    (Test_bddbase.arb_graph_ts ~max_n:8 ~max_m:12 ~max_k:4)
    (fun (n, es, ts) ->
      let g = graph ~n es in
      (* 5000 samples span two 4096-chunks, so the reduction is real. *)
      all_equal ~eq:same_estimate
        (List.map (fun jobs -> mc ~jobs ~seed:42 ~samples:5_000 g ts) jobs_values))

let prop_ht_jobs_equivalent =
  QCheck.Test.make ~name:"HT bit-identical at jobs 1/2/8" ~count:25
    (Test_bddbase.arb_graph_ts ~max_n:8 ~max_m:12 ~max_k:4)
    (fun (n, es, ts) ->
      let g = graph ~n es in
      all_equal ~eq:same_estimate
        (List.map (fun jobs -> ht ~jobs ~seed:42 ~samples:5_000 g ts) jobs_values))

let prop_reliability_jobs_equivalent =
  QCheck.Test.make ~name:"Reliability.estimate bit-identical at jobs 1/2/8"
    ~count:15
    (Test_bddbase.arb_graph_ts ~max_n:8 ~max_m:12 ~max_k:3)
    (fun (n, es, ts) ->
      let g = graph ~n es in
      (* A tiny width forces node deletion, so the stratified descents
         (the parallel surface inside each S2BDD) actually run; the
         whole report — value, bounds, budgets, every subresult — must
         be structurally identical. *)
      let config = { S.default_config with S.samples = 400; S.width = 2 } in
      all_equal ~eq:( = )
        (List.map
           (fun jobs -> R.estimate ~config ~jobs g ~terminals:ts)
           jobs_values))

(* A round with fewer chunks than domains cuts each chunk into pieces
   whose streams are the chunk's, advanced past the earlier pieces'
   draws. On small graphs every budget up to 4096 is one chunk, so
   these runs cut it. The extra edges make sure p = 0 and p = 1
   positions, which draw nothing, sit among the drawn ones: a skip
   that counted them would shift every later world. Budgets avoid
   multiples of 62, so bit-sliced chunks end on a ragged batch. *)
let arb_pieces =
  QCheck.pair
    (Test_bddbase.arb_graph_ts ~max_n:8 ~max_m:12 ~max_k:4)
    (QCheck.make ~print:string_of_int
       QCheck.Gen.(
         map (fun b -> if b mod 62 = 0 then b - 1 else b) (int_range 1 400)))

let piece_jobs = [ 1; 2; 3; 4 ]

(* The sampling histograms of a run under a constant clock: what is
   left depends only on the seed and the chunk layout. *)
let sampling_hists obs =
  let module J = Obs.Json in
  Option.bind (J.member "sampling" (Obs.to_json obs)) (J.member "hist")
  |> Option.fold ~none:"" ~some:J.to_string

(* Runs [run ~obs jobs] at each of [piece_jobs]: the answers and the
   histograms must agree (flat HT must count a world's connectivity
   check once per chunk, though a later piece checks it again), and
   each run must dispatch one task per piece, as many as the domains
   or the chunk's cut points ([units]) allow. *)
let pieces_agree ~eq ~units run =
  let runs =
    List.map
      (fun jobs ->
        let obs = Obs.create ~clock:(fun () -> 0.) () in
        let before = (Par.counters ()).Par.tasks in
        let x = run ~obs jobs in
        let tasks = (Par.counters ()).Par.tasks - before in
        ((x, sampling_hists obs), tasks = min units (Par.effective_jobs jobs)))
      piece_jobs
  in
  all_equal
    ~eq:(fun (x, h) (y, h') -> eq x y && String.equal h h')
    (List.map fst runs)
  && List.for_all snd runs

let prop_pieces_bit_identical =
  QCheck.Test.make
    ~name:"single-chunk pieces bit-identical at jobs 1/2/3/4" ~count:40
    arb_pieces
    (fun ((n, es, ts), samples) ->
      let g = graph ~n (((0, n - 1, 0.) :: es) @ [ (n - 1, 0, 1.) ]) in
      List.for_all
        (fun (kernel, units) ->
          pieces_agree ~eq:same_estimate ~units (fun ~obs jobs ->
              Mcsampling.monte_carlo ~obs ~seed:42 ~jobs ~kernel g
                ~terminals:ts ~samples)
          && pieces_agree ~eq:same_estimate ~units (fun ~obs jobs ->
                 Mcsampling.horvitz_thompson ~obs ~seed:42 ~jobs ~kernel g
                   ~terminals:ts ~samples)
          && pieces_agree ~eq:( = ) ~units (fun ~obs jobs ->
                 Adaptive.monte_carlo ~obs ~seed:42 ~jobs ~kernel g
                   ~terminals:ts ~ci_width:0.05 ~max_samples:samples))
        [ (Mcsampling.Flat, samples);
          (Mcsampling.Bitsliced, (samples + 61) / 62) ])

let test_mc_three_chunks () =
  (* Fixed-size check on a named graph: 10_000 samples = 3 chunks. *)
  let g = fig1 () in
  let es = List.map (fun jobs -> mc ~jobs ~seed:7 ~samples:10_000 g [ 0; 4 ]) jobs_values in
  Alcotest.(check int) "3 chunks" 3
    (Array.length (List.hd es).Mcsampling.chunk_samples);
  Alcotest.(check bool) "bit-identical" true (all_equal ~eq:same_estimate es)

(* ---- HT dedup / chunk-merge semantics ---- *)

let test_ht_all_masks_equal () =
  (* p = 1 everywhere: every one of the 10_000 samples draws the same
     full mask, across 3 chunks. The per-chunk tables each collapse to
     one entry and the chunk-order merge must collapse those to one
     distinct sample with pi = 1. *)
  let g = fig1 ~p:1.0 () in
  List.iter
    (fun jobs ->
      let e = ht ~jobs ~seed:3 ~samples:10_000 g [ 0; 4 ] in
      Alcotest.(check int) "distinct" 1 e.Mcsampling.distinct;
      Alcotest.(check int) "hits" 1 e.Mcsampling.hits;
      check_close "value" 1.0 e.Mcsampling.value)
    jobs_values

let test_ht_two_masks () =
  (* One edge at p = 0.5: exactly two possible masks. With 10_000
     samples both appear (up to probability 2^-9999) in every chunk;
     the merge keeps first occurrences and the estimate is
     0.5 / pi with pi = 1 - 0.5^10000 ~ 1. *)
  let g = graph ~n:2 [ (0, 1, 0.5) ] in
  let es = List.map (fun jobs -> ht ~jobs ~seed:11 ~samples:10_000 g [ 0; 1 ]) jobs_values in
  List.iter
    (fun (e : Mcsampling.estimate) ->
      Alcotest.(check int) "distinct" 2 e.Mcsampling.distinct;
      check_close ~eps:1e-12 "value" 0.5 e.Mcsampling.value)
    es;
  Alcotest.(check bool) "bit-identical" true (all_equal ~eq:same_estimate es)

(* ---- statistical regression: parallel MC vs exact BDD ---- *)

let test_mc_agresti_coull () =
  (* Karate workload: the jobs=4 MC estimate must land inside the
     Agresti–Coull 99.9% interval around the exact BDD reliability.
     False-failure probability ~1e-3 at the fixed seed (deterministic
     in practice: the sampler never changes for a fixed seed). *)
  let g = (D.karate ~seed:1 ()).D.graph in
  let ts = [ 0; 33 ] in
  let exact =
    match R.exact g ~terminals:ts with
    | Ok r -> r
    | Error _ -> Alcotest.fail "exact BDD DNF on karate"
  in
  let s = 40_000 in
  let e = mc ~jobs:4 ~seed:123 ~samples:s g ts in
  let z = 3.2905 (* 99.9% two-sided *) in
  let n_tilde = float_of_int s +. (z *. z) in
  let p_tilde = (float_of_int e.Mcsampling.hits +. (z *. z /. 2.)) /. n_tilde in
  let halfwidth = z *. sqrt (p_tilde *. (1. -. p_tilde) /. n_tilde) in
  if Float.abs (p_tilde -. exact) > halfwidth then
    Alcotest.failf
      "MC estimate outside 99.9%% Agresti-Coull interval: exact=%.6f \
       p~=%.6f halfwidth=%.6f (hits=%d/%d)"
      exact p_tilde halfwidth e.Mcsampling.hits s

let suite =
  ( "par",
    [
      Alcotest.test_case "chunks cover and balance" `Quick test_chunks_cover;
      Alcotest.test_case "chunks of zero total" `Quick test_chunks_empty;
      Alcotest.test_case "chunks invalid args" `Quick test_chunks_invalid;
      Alcotest.test_case "pool map basics" `Quick test_pool_basic;
      Alcotest.test_case "jobs > tasks" `Quick test_pool_jobs_exceed_tasks;
      Alcotest.test_case "exception propagation" `Quick test_pool_exception;
      Alcotest.test_case "effective_jobs validation" `Quick test_effective_jobs_invalid;
      Alcotest.test_case "MC equivalence, 3 chunks" `Quick test_mc_three_chunks;
      Alcotest.test_case "HT merge: all masks equal" `Quick test_ht_all_masks_equal;
      Alcotest.test_case "HT merge: two masks" `Quick test_ht_two_masks;
      Alcotest.test_case "MC within Agresti-Coull 99.9% of exact" `Slow
        test_mc_agresti_coull;
    ]
    @ qtests
        [
          prop_mc_jobs_equivalent;
          prop_ht_jobs_equivalent;
          prop_reliability_jobs_equivalent;
          prop_pieces_bit_identical;
        ] )
