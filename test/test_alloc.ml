(* Allocation guards for the sampling inner loops. Every estimator draws
   one outcome per edge per possible graph, so a word allocated per edge
   is paid millions of times per query; these tests hold the draws, the
   connectivity round and the world-probability fold to what they are
   meant to allocate, measured as Gc.minor_words deltas. The remaining
   2 words per edge of the kernel draws are the boxed probability
   argument of the cross-module Prng call. *)

open Testutil
module K = Kernel

(* Minor-heap words allocated per call of [f], after one warm-up call
   (scratch buffers grow on first use). *)
let words_per_call ~reps f =
  f ();
  let before = Gc.minor_words () in
  for _ = 1 to reps do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int reps

let check_at_most what ~limit words =
  if words > limit then
    Alcotest.failf "%s: %.2f words, limit %.2f" what words limit

let check_below what ~limit words =
  if words >= limit then
    Alcotest.failf "%s: %.2f words, limit < %.2f" what words limit

let t_prng_draws () =
  let g = rng () in
  check_below "Prng.bernoulli per call" ~limit:1.
    (words_per_call ~reps:10_000 (fun () -> ignore (Prng.bernoulli g 0.3)));
  check_below "Prng.Bitbatch.draw per call" ~limit:1.
    (words_per_call ~reps:10_000 (fun () ->
         ignore (Prng.Bitbatch.draw g 0.3)));
  check_below "Prng.int per call" ~limit:1.
    (words_per_call ~reps:10_000 (fun () -> ignore (Prng.int g 10)));
  check_below "Prng.bool per call" ~limit:1.
    (words_per_call ~reps:10_000 (fun () -> ignore (Prng.bool g)))

(* A fixed 10^4-edge snapshot: random endpoints over 2,000 vertices,
   probabilities spread over [0, 1] including both degenerate ends. *)
let m = 10_000

let csr =
  lazy
    (let r = Prng.create 7 in
     let n = 2_000 in
     let eu = Array.init m (fun _ -> Prng.int r n) in
     let ev = Array.init m (fun _ -> Prng.int r n) in
     let ep =
       Array.init m (fun i ->
           match i mod 50 with
           | 0 -> 0.
           | 1 -> 1.
           | _ -> Prng.float r)
     in
     K.Csr.of_arrays ~n ~eu ~ev ~ep)

let terminals = [| 0; 1; 999; 1_999 |]

let t_per_edge_draws () =
  let c = Lazy.force csr and sc = K.create () and g = rng () in
  let per_edge what f =
    check_at_most (what ^ " per edge") ~limit:3.
      (words_per_call ~reps:10 f /. float_of_int m)
  in
  per_edge "draw" (fun () -> K.draw sc c g);
  per_edge "draw_prob" (fun () -> ignore (K.draw_prob sc c g));
  per_edge "draw_bitsliced" (fun () -> K.draw_bitsliced sc c g);
  per_edge "draw_sub" (fun () ->
      ignore
        (K.draw_sub sc c ~pos:0 ~detail:true ~bernoulli:(fun p ->
             Prng.bernoulli g p)))

let t_per_call_rounds () =
  let c = Lazy.force csr and sc = K.create () and g = rng () in
  K.draw sc c g;
  check_below "connected_terminals per call" ~limit:64.
    (words_per_call ~reps:100 (fun () ->
         ignore (K.connected_terminals sc c terminals)));
  K.draw_bitsliced sc c g;
  check_below "connected_lanes per call" ~limit:64.
    (words_per_call ~reps:100 (fun () ->
         ignore (K.connected_lanes sc c terminals ~active:Prng.Bitbatch.all)));
  let lane = ref 0 in
  check_below "world_prob per call" ~limit:64.
    (words_per_call ~reps:Prng.Bitbatch.lanes (fun () ->
         ignore (K.world_prob sc c ~lane:!lane);
         lane := (!lane + 1) mod Prng.Bitbatch.lanes))

(* The extension technique works over flat arrays sized by the graph,
   which the runtime places in the major heap, so its minor-heap words
   per input edge stay a small constant: the Xprob bridge fold, the
   subproblem and result records, the final graphs' edge records. The
   limit sits far below the ~200 words per edge that boxed edge lists,
   adjacency lists, Hashtbl buckets and induced subgraphs cost on the
   same input. Measured on the seeded NYC road grid (~10^4 edges), ten
   random terminals. *)
let t_pipeline_words_per_edge () =
  let g = (Workload.Datasets.nyc ()).Workload.Datasets.graph in
  let ts = Workload.Generators.random_terminals ~seed:1 g ~k:10 in
  let per_edge =
    words_per_call ~reps:3 (fun () ->
        ignore (Preprocess.Pipeline.run g ~terminals:ts))
    /. float_of_int (Ugraph.n_edges g)
  in
  check_below "Pipeline.run minor words per input edge" ~limit:40. per_edge

let suite =
  ( "alloc",
    [
      Alcotest.test_case "Prng draws allocate nothing" `Quick t_prng_draws;
      Alcotest.test_case "kernel draws: <= 3 words per edge" `Quick
        t_per_edge_draws;
      Alcotest.test_case "connectivity and world_prob: O(1) per call"
        `Quick t_per_call_rounds;
      Alcotest.test_case "Pipeline.run: < 40 minor words per edge" `Quick
        t_pipeline_words_per_edge;
    ] )
