(* Differential battery for the bit-sliced world-parallel kernel.

   The bit-sliced draw cannot be bit-identical to the scalar draw order
   (one batch stream feeds 62 worlds), so unlike test_kernel.ml these
   are not cross-mode stream-sync checks. The contract pinned here is:

   - the slab is exactly the per-lane replay: bit [l] of every slab
     word equals [Prng.Bitbatch.bernoulli_lane ~lane:l] replayed
     against a copy of the batch stream (and the replay leaves the
     stream in the same state as the batch draw);
   - each lane's verdict from the bit-parallel search equals the
     full-DSU verdict over that lane's replayed bool mask;
   - world hashes are digest-identical to [Hash64.mask] over the
     replayed mask (so HT dedup semantics match the flat path);
   - within the bitsliced mode, MC/HT estimates are bit-identical at
     jobs 1/2/8 (the ordered-reduction contract holds per mode). *)

open Testutil
module K = Kernel
module B = Prng.Bitbatch

let arb_graph_ts = Test_bddbase.arb_graph_ts

let streams_synced r1 r2 = Prng.int r1 1_000_000 = Prng.int r2 1_000_000

(* Replay lane [lane] of a bit-sliced draw: the scalar per-world draw,
   fed by a fresh copy of the batch stream. *)
let replay_lane g ~seed ~lane =
  let r = Prng.create seed in
  let m = Ugraph.n_edges g in
  ( Array.init m (fun eid ->
        B.bernoulli_lane r ~lane (Ugraph.edge g eid).Ugraph.p),
    r )

let slab_bit sc ~pos ~lane = (K.slab_word sc pos lsr lane) land 1 = 1

(* ---- transpose ---- *)

let prop_transpose_involution =
  QCheck.Test.make ~name:"Bitslab: transpose o transpose = id" ~count:300
    QCheck.(pair (int_bound 80) (int_bound 80))
    (fun (rows, cols) ->
      let r = rng () in
      let wpr = K.Bitslab.words_per_row ~cols in
      let top_bits = cols - ((wpr - 1) * Hash64.word_bits) in
      let src =
        Array.init (rows * wpr) (fun i ->
            let w = Int64.to_int (Int64.shift_right_logical (Prng.bits64 r) 2) in
            (* Zero the padding above the row's last valid bit. *)
            if i mod wpr = wpr - 1 && top_bits < Hash64.word_bits then
              w land ((1 lsl top_bits) - 1)
            else w)
      in
      let wpr_d = K.Bitslab.words_per_row ~cols:rows in
      let dst = Array.make (max (cols * wpr_d) 1) 0 in
      let back = Array.make (max (rows * wpr) 1) 0 in
      K.Bitslab.transpose ~src ~rows ~cols ~dst;
      K.Bitslab.transpose ~src:dst ~rows:cols ~cols:rows ~dst:back;
      Array.for_all2 ( = ) src (Array.sub back 0 (Array.length src)))

(* ---- per-lane replay ---- *)

let prop_slab_equals_lane_replay =
  QCheck.Test.make ~name:"draw_bitsliced: slab lane = bernoulli_lane replay"
    ~count:150
    (arb_graph_ts ~max_n:8 ~max_m:14 ~max_k:4)
    (fun (n, es, _) ->
      let g = graph ~n es in
      let m = Ugraph.n_edges g in
      let seed = 11 * n + m in
      let batch_rng = Prng.create seed in
      let c = K.Csr.of_graph g in
      let sc = K.create () in
      K.draw_bitsliced sc c batch_rng;
      let ok = ref true in
      for lane = 0 to B.lanes - 1 do
        let present, replay_rng = replay_lane g ~seed ~lane in
        for pos = 0 to m - 1 do
          if slab_bit sc ~pos ~lane <> present.(pos) then ok := false
        done;
        (* The replay consumed the identical stream. *)
        if not (streams_synced replay_rng (Prng.copy batch_rng)) then
          ok := false
      done;
      !ok)

(* The batch draw is exact for the degenerate probabilities: p <= 0 and
   p >= 1 consume no randomness and decide every lane, like
   Prng.bernoulli. *)
let t_batch_degenerate_probs () =
  let r = rng () in
  let before = Prng.copy r in
  Alcotest.(check int) "p=1 -> all lanes" B.all (B.draw r 1.);
  Alcotest.(check int) "p=0 -> no lanes" 0 (B.draw r 0.);
  Alcotest.(check int) "p<0 -> no lanes" 0 (B.draw r (-0.5));
  Alcotest.(check int) "p>1 -> all lanes" B.all (B.draw r 1.5);
  Alcotest.(check bool) "no stream consumed" true (streams_synced r before)

(* Marginal sanity: lane-0 frequency over many draws approaches p. *)
let t_batch_marginal () =
  let r = rng () in
  List.iter
    (fun p ->
      let hits = ref 0 and total = 20_000 in
      for _ = 1 to total do
        if B.draw r p land 1 = 1 then incr hits
      done;
      let freq = float_of_int !hits /. float_of_int total in
      if Float.abs (freq -. p) > 0.02 then
        Alcotest.failf "p=%g: lane-0 frequency %.4f" p freq)
    [ 0.1; 0.5; 0.7; 0.9 ]

(* ---- verdicts vs the full-DSU reference ---- *)

(* After a bit-sliced draw: each lane's [connected_lanes] bit equals the
   full-DSU verdict over that lane's world, and restricting [active] to
   each of [actives] masks the verdict and nothing else. *)
let lanes_match_dsu sc c g dsu term_arr ~actives =
  let ts = Array.to_list term_arr in
  let verdict = K.connected_lanes sc c term_arr ~active:B.all in
  let ok = ref true in
  for lane = 0 to B.lanes - 1 do
    let present =
      Array.init (Ugraph.n_edges g) (fun pos -> slab_bit sc ~pos ~lane)
    in
    let want =
      Graphalgo.Connectivity.terminals_connected_dsu dsu g ~present ts
    in
    if (verdict lsr lane) land 1 = 1 <> want then ok := false
  done;
  List.iter
    (fun active ->
      if K.connected_lanes sc c term_arr ~active <> verdict land active then
        ok := false)
    actives;
  !ok

let prop_lane_verdicts_match_dsu =
  QCheck.Test.make ~name:"connected_lanes = per-lane full DSU" ~count:150
    (arb_graph_ts ~max_n:8 ~max_m:14 ~max_k:4)
    (fun (n, es, ts) ->
      let g = graph ~n es in
      let seed = 17 * n + List.length es in
      let c = K.Csr.of_graph g in
      let sc = K.create () in
      let term_arr = Array.of_list ts in
      let dsu = Dsu.create n in
      let ok = ref true in
      let batch_rng = Prng.create seed in
      (* Several rounds on one scratch exercise the per-call search
         reset and the union-find's generation stamping. *)
      for _ = 1 to 5 do
        K.draw_bitsliced sc c batch_rng;
        if not
             (lanes_match_dsu sc c g dsu term_arr
                ~actives:[ 0x2AAAAAAAAAAAAAA land B.all ])
        then ok := false
      done;
      !ok)

(* The same agreement on seeded ~10^3-vertex graphs, large enough for
   the search to wrap its FIFO queue, re-queue vertices whose lane word
   grows and stop early once every lane has met every terminal — none
   of which the 8-vertex graphs above reach. Both graphs carry
   self-loops, parallel edges and one vertex with no incident edge;
   terminal sets include that vertex and a duplicated terminal. *)
let t_lane_verdicts_large () =
  let n = 1_000 in
  let r = Prng.create 4242 in
  let random_edges =
    List.init 2_500 (fun _ -> (Prng.int r (n - 1), Prng.int r (n - 1)))
  in
  let pa_edges =
    let g =
      Workload.Generators.preferential_attachment_large ~seed:7 ~n:(n - 1)
        ~edges_per_vertex:2
    in
    List.init (Ugraph.n_edges g) (fun eid ->
        let e = Ugraph.edge g eid in
        (e.Ugraph.u, e.Ugraph.v))
  in
  (* Vertex n - 1 has no incident edge: every endpoint is below it. *)
  let with_extras es =
    es
    @ List.init 40 (fun i -> (i * 17, i * 17))
    @ List.filteri (fun i _ -> i mod 25 = 0) es
  in
  let sc = K.create () in
  let dsu = Dsu.create n in
  List.iter
    (fun (label, es) ->
      List.iter
        (fun p ->
          let g =
            graph ~n (List.map (fun (u, v) -> (u, v, p)) (with_extras es))
          in
          let c = K.Csr.of_graph g in
          List.iter
            (fun k ->
              let ts = Array.init k (fun _ -> Prng.int r (n - 1)) in
              let variants =
                [ ts;
                  Array.append ts [| n - 1 |];
                  Array.append ts [| ts.(0) |] ]
              in
              K.draw_bitsliced sc c r;
              List.iter
                (fun term_arr ->
                  let actives =
                    [ Prng.int r B.all; (1 lsl (1 + Prng.int r 61)) - 1 ]
                  in
                  if not (lanes_match_dsu sc c g dsu term_arr ~actives) then
                    Alcotest.failf "%s, p = %g, k = %d, terminals [%s]" label
                      p k
                      (String.concat ";"
                         (Array.to_list (Array.map string_of_int term_arr))))
                variants)
            [ 2; 5; 20 ])
        [ 0.1; 0.5; 0.9 ])
    [ ("random", random_edges); ("preferential attachment", pa_edges) ]

(* ---- world hash and probability vs the replayed mask ---- *)

let prop_world_hash_prob_match_replay =
  QCheck.Test.make ~name:"world_hash/world_prob = replayed-mask reference"
    ~count:150
    (arb_graph_ts ~max_n:8 ~max_m:14 ~max_k:4)
    (fun (n, es, _) ->
      let g = graph ~n es in
      let m = Ugraph.n_edges g in
      let seed = 23 * n + m in
      let c = K.Csr.of_graph g in
      let sc = K.create () in
      K.draw_bitsliced sc c (Prng.create seed);
      K.transpose_worlds sc;
      let ok = ref true in
      for lane = 0 to B.lanes - 1 do
        let present = Array.init m (fun pos -> slab_bit sc ~pos ~lane) in
        if K.world_hash sc ~lane <> Hash64.mask present m then ok := false;
        let prob = ref Xprob.one in
        Array.iteri
          (fun pos b ->
            let p = c.K.Csr.ep.(pos) in
            prob := Xprob.scale (if b then p else 1. -. p) !prob)
          present;
        if K.world_prob sc c ~lane <> !prob then ok := false
      done;
      !ok)

(* ---- sampler determinism within the bitsliced mode ---- *)

let mc_projection (e : Mcsampling.estimate) =
  ( e.Mcsampling.value,
    e.Mcsampling.samples_used,
    e.Mcsampling.hits,
    e.Mcsampling.distinct,
    e.Mcsampling.variance_estimate,
    e.Mcsampling.chunk_samples )

let prop_bitsliced_jobs_identical =
  QCheck.Test.make ~name:"bitsliced MC/HT bit-identical at jobs 1/2/8"
    ~count:25
    (arb_graph_ts ~max_n:7 ~max_m:12 ~max_k:3)
    (fun (n, es, ts) ->
      let g = graph ~n es in
      (* 700 is not a lane multiple: every chunk ends in a ragged
         batch whose inactive lanes must not leak into the counts. *)
      let samples = 700 in
      let seed = 5 + n in
      let kernel = Mcsampling.Bitsliced in
      let mc1 =
        Mcsampling.monte_carlo ~seed ~jobs:1 ~kernel g ~terminals:ts ~samples
      in
      let ht1 =
        Mcsampling.horvitz_thompson ~seed ~jobs:1 ~kernel g ~terminals:ts
          ~samples
      in
      List.for_all
        (fun jobs ->
          mc_projection
            (Mcsampling.monte_carlo ~seed ~jobs ~kernel g ~terminals:ts
               ~samples)
          = mc_projection mc1
          && mc_projection
               (Mcsampling.horvitz_thompson ~seed ~jobs ~kernel g
                  ~terminals:ts ~samples)
             = mc_projection ht1)
        [ 2; 8 ])

(* Known answers of seeded bit-sliced HT runs: value (as float bits),
   hits and distinct for k = 2/5/20 random terminals (fig1: 2/3/5 fixed
   ones). Karate and a 10^3-vertex preferential-attachment graph keep
   every drawn world distinct; fig1's six edges make most draws
   duplicates, so there the dedup path carries the answer. Every sample
   count leaves a ragged last batch in some chunk. *)
let t_ht_bitsliced_known_answers () =
  let karate () =
    (Workload.Datasets.karate ~seed:1 ()).Workload.Datasets.graph
  in
  let pa () =
    Workload.Probability.uniform_range ~seed:3 ~lo:0.5 ~hi:0.95
      (Workload.Generators.preferential_attachment_large ~seed:7 ~n:1000
         ~edges_per_vertex:3)
  in
  let random k g = Workload.Generators.random_terminals ~seed:k g ~k in
  let prefix k _ = List.filteri (fun i _ -> i < k) [ 0; 3; 4; 1; 2 ] in
  List.iter
    (fun (name, g, terminals, samples, cases) ->
      let g = g () in
      List.iter
        (fun (k, want) ->
          let e =
            Mcsampling.horvitz_thompson ~seed:11 ~kernel:Mcsampling.Bitsliced g
              ~terminals:(terminals k g) ~samples
          in
          Alcotest.(check (triple int64 int int))
            (Printf.sprintf "%s, k = %d" name k)
            want
            (Int64.bits_of_float e.Mcsampling.value, e.Mcsampling.hits,
             e.Mcsampling.distinct))
        cases)
    [ ("karate", karate, random, 3000,
       [ (2, (4603111164736882790L, 1644, 3000));
         (5, (4602870972756754346L, 1564, 3000));
         (20, (4591798122472932758L, 297, 3000)) ]);
      ("pa1000", pa, random, 1000,
       [ (2, (4607146390002998451L, 996, 1000));
         (5, (4606191626881995905L, 890, 1000));
         (20, (4606272691675288574L, 899, 1000)) ]);
      ("fig1", (fun () -> fig1 ()), prefix, 700,
       [ (2, (4605318161365636891L, 31, 61));
         (3, (4604629617484809907L, 23, 61));
         (5, (4604100822236815471L, 18, 61)) ]) ]

(* ---- edge cases ---- *)

let t_zero_edge_graph () =
  let g = graph ~n:2 [] in
  let c = K.Csr.of_graph g in
  let sc = K.create () in
  K.draw_bitsliced sc c (rng ());
  Alcotest.(check int)
    "disconnected terminals: no lane connects" 0
    (K.connected_lanes sc c [| 0; 1 |] ~active:B.all);
  K.transpose_worlds sc;
  Alcotest.(check int)
    "empty-mask hash" (Hash64.mask [||] 0) (K.world_hash sc ~lane:3);
  let e =
    Mcsampling.monte_carlo ~seed:3 ~kernel:Mcsampling.Bitsliced g
      ~terminals:[ 0; 1 ] ~samples:200
  in
  Alcotest.(check (float 0.)) "MC estimate 0" 0. e.Mcsampling.value

let t_single_edge () =
  let g = graph ~n:2 [ (0, 1, 0.5) ] in
  let c = K.Csr.of_graph g in
  let sc = K.create () in
  K.draw_bitsliced sc c (rng ());
  (* The verdict word IS the slab word: lane connects iff it drew the
     one edge. *)
  Alcotest.(check int)
    "verdict = slab word"
    (K.slab_word sc 0)
    (K.connected_lanes sc c [| 0; 1 |] ~active:B.all)

let t_self_loop_only () =
  let g = graph ~n:2 [ (0, 0, 0.9) ] in
  let c = K.Csr.of_graph g in
  let sc = K.create () in
  K.draw_bitsliced sc c (rng ());
  Alcotest.(check int)
    "self-loops never connect" 0
    (K.connected_lanes sc c [| 0; 1 |] ~active:B.all)

let t_terminals_already_connected () =
  (* One marked component before any union: every active lane connects
     with no edge work at all — on a zero-edge graph included. *)
  let g = graph ~n:3 [] in
  let c = K.Csr.of_graph g in
  let sc = K.create () in
  K.draw_bitsliced sc c (rng ());
  Alcotest.(check int)
    "duplicate terminal marks" B.all
    (K.connected_lanes sc c [| 1; 1 |] ~active:B.all);
  Alcotest.(check int)
    "single terminal" 0x7
    (K.connected_lanes sc c [| 2 |] ~active:0x7)

let t_ragged_last_word () =
  (* 70 edges: the world-major rows span two packed words, the second
     ragged. The hash must still replay Hash64.mask exactly. *)
  let m = 70 in
  let n = m + 1 in
  let es = List.init m (fun i -> (i, i + 1, 0.5)) in
  let g = graph ~n es in
  let c = K.Csr.of_graph g in
  let sc = K.create () in
  K.draw_bitsliced sc c (rng ());
  K.transpose_worlds sc;
  for lane = 0 to B.lanes - 1 do
    let present = Array.init m (fun pos -> slab_bit sc ~pos ~lane) in
    Alcotest.(check int)
      (Printf.sprintf "ragged world hash, lane %d" lane)
      (Hash64.mask present m)
      (K.world_hash sc ~lane)
  done

(* Lanes outside [0, lanes) are rejected, not read off neighbouring
   bits: a shift by 62 or 63 reads slab padding (the all-absent world)
   and a shift by 100 wraps onto another lane. *)
let t_lane_range () =
  let g = graph ~n:3 [ (0, 1, 0.5); (1, 2, 0.7); (0, 2, 0.75) ] in
  let c = K.Csr.of_graph g in
  let sc = K.create () in
  K.draw_bitsliced sc c (rng ());
  K.transpose_worlds sc;
  List.iter
    (fun lane ->
      Alcotest.check_raises
        (Printf.sprintf "world_prob ~lane:%d" lane)
        (Invalid_argument "Kernel.world_prob")
        (fun () -> ignore (K.world_prob sc c ~lane));
      Alcotest.check_raises
        (Printf.sprintf "world_hash ~lane:%d" lane)
        (Invalid_argument "Kernel.world_hash")
        (fun () -> ignore (K.world_hash sc ~lane)))
    [ -1; B.lanes; B.lanes + 1; 100 ];
  List.iter
    (fun lane ->
      let present = Array.init 3 (fun pos -> slab_bit sc ~pos ~lane) in
      Alcotest.(check int)
        (Printf.sprintf "world_hash ~lane:%d" lane)
        (Hash64.mask present 3) (K.world_hash sc ~lane);
      ignore (K.world_prob sc c ~lane))
    [ 0; B.lanes - 1 ]

(* ---- scratch reuse across graphs: the draw/union pairing check ---- *)

let t_scratch_graph_mismatch () =
  let g_a = fig1 () in
  let g_b = graph ~n:3 [ (0, 1, 0.5); (1, 2, 0.5) ] in
  let csr_a = K.Csr.of_graph g_a and csr_b = K.Csr.of_graph g_b in
  let sc = K.create () in
  let r = rng () in
  (* Fresh scratch: no draw at all yet. *)
  Alcotest.check_raises "connectivity before any draw"
    (Invalid_argument "Kernel: no draw against this Csr in scratch (draw first)")
    (fun () -> ignore (K.connected_terminals sc csr_a [| 0; 4 |]));
  (* Flat draw against A, connectivity against B: the present buffer
     holds positions into A, which B would silently misread. *)
  K.draw sc csr_a r;
  Alcotest.check_raises "flat draw A, union B"
    (Invalid_argument "Kernel: no draw against this Csr in scratch (draw first)")
    (fun () -> ignore (K.connected_terminals sc csr_b [| 0; 2 |]));
  Alcotest.check_raises "flat draw A, read present of B"
    (Invalid_argument "Kernel: no draw against this Csr in scratch (draw first)")
    (fun () -> K.iter_present sc csr_b ignore);
  Alcotest.(check bool)
    "matching Csr still works" true
    (let _ = K.connected_terminals sc csr_a [| 0; 4 |] in
     true);
  (* Same for the bit-sliced entry points. *)
  K.draw_bitsliced sc csr_b r;
  Alcotest.check_raises "bitsliced draw B, peel A"
    (Invalid_argument "Kernel: no draw against this Csr in scratch (draw first)")
    (fun () -> ignore (K.connected_lanes sc csr_a [| 0; 4 |] ~active:B.all));
  ignore (K.connected_lanes sc csr_b [| 0; 2 |] ~active:B.all);
  (* The present buffer and the slab are guarded apart: a draw of one
     kind leaves the other buffer holding positions into its own Csr.
     Path 0-1-2-3 with every p = 1 ([c]) and its copy with every p = 0
     ([c0]). *)
  let path p =
    K.Csr.of_graph (graph ~n:4 [ (0, 1, p); (1, 2, p); (2, 3, p) ])
  in
  let c = path 1. and c0 = path 0. in
  let no_draw =
    Invalid_argument "Kernel: no draw against this Csr in scratch (draw first)"
  in
  let sc = K.create () in
  K.draw sc c0 r;
  K.draw_bitsliced sc c r;
  Alcotest.check_raises "flat draw c0, bitsliced c, flat connectivity c"
    no_draw (fun () -> ignore (K.connected_terminals sc c [| 0; 3 |]));
  Alcotest.check_raises "flat draw c0, bitsliced c, union_drawn c" no_draw
    (fun () -> ignore (K.union_drawn sc c));
  Alcotest.(check int)
    "the slab still answers for c" B.all
    (K.connected_lanes sc c [| 0; 3 |] ~active:B.all);
  let sc2 = K.create () in
  K.draw_bitsliced sc2 c0 r;
  K.draw sc2 c r;
  Alcotest.check_raises "bitsliced c0, flat c, lanes c" no_draw (fun () ->
      ignore (K.connected_lanes sc2 c [| 0; 3 |] ~active:B.all));
  Alcotest.check_raises "bitsliced c0, flat c, world_prob c" no_draw
    (fun () -> ignore (K.world_prob sc2 c ~lane:0));
  Alcotest.(check bool)
    "the present buffer still answers for c" true
    (K.connected_terminals sc2 c [| 0; 3 |])

(* [world_hash] reads the transposition, which only [transpose_worlds]
   refreshes: after any later slab write it must refuse rather than
   hash the previous batch (or, on a larger graph, index past the old
   rows). *)
let t_world_hash_needs_transpose () =
  let stale = Invalid_argument "Kernel.world_hash" in
  let small = K.Csr.of_graph (graph ~n:3 [ (0, 1, 0.5); (1, 2, 0.5) ]) in
  let large =
    K.Csr.of_graph (graph ~n:71 (List.init 70 (fun i -> (i, i + 1, 0.5))))
  in
  let sc = K.create () and r = rng () in
  Alcotest.check_raises "fresh scratch" stale (fun () ->
      ignore (K.world_hash sc ~lane:0));
  K.draw_bitsliced sc small r;
  K.transpose_worlds sc;
  ignore (K.world_hash sc ~lane:0);
  K.draw_bitsliced sc small r;
  Alcotest.check_raises "redrawn, not transposed" stale (fun () ->
      ignore (K.world_hash sc ~lane:0));
  K.draw_bitsliced sc large r;
  List.iter
    (fun lane ->
      Alcotest.check_raises
        (Printf.sprintf "larger Csr, not transposed, lane %d" lane)
        stale
        (fun () -> ignore (K.world_hash sc ~lane)))
    [ 0; B.lanes - 1 ];
  K.transpose_worlds sc;
  let lane = B.lanes - 1 in
  Alcotest.(check int)
    "transposed again"
    (Hash64.mask (Array.init 70 (fun pos -> slab_bit sc ~pos ~lane)) 70)
    (K.world_hash sc ~lane);
  K.set_slab_word sc 0 (lnot (K.slab_word sc 0));
  Alcotest.check_raises "slab word overwritten" stale (fun () ->
      ignore (K.world_hash sc ~lane:0))

let suite =
  ( "kernel-bitsliced",
    [
      Alcotest.test_case "batch degenerate probabilities" `Quick
        t_batch_degenerate_probs;
      Alcotest.test_case "batch lane-0 marginal" `Quick t_batch_marginal;
      Alcotest.test_case "zero-edge graph" `Quick t_zero_edge_graph;
      Alcotest.test_case "single edge" `Quick t_single_edge;
      Alcotest.test_case "self-loop only" `Quick t_self_loop_only;
      Alcotest.test_case "terminals already connected" `Quick
        t_terminals_already_connected;
      Alcotest.test_case "ragged last word" `Quick t_ragged_last_word;
      Alcotest.test_case "scratch graph mismatch" `Quick
        t_scratch_graph_mismatch;
      Alcotest.test_case "world_prob/world_hash lane range" `Quick
        t_lane_range;
      Alcotest.test_case "world_hash needs a fresh transpose" `Quick
        t_world_hash_needs_transpose;
      Alcotest.test_case "connected_lanes = per-lane full DSU, 10^3 vertices"
        `Quick t_lane_verdicts_large;
      Alcotest.test_case "bitsliced HT known answers" `Quick
        t_ht_bitsliced_known_answers;
    ]
    @ qtests
        [
          prop_transpose_involution;
          prop_slab_equals_lane_replay;
          prop_lane_verdicts_match_dsu;
          prop_world_hash_prob_match_replay;
          prop_bitsliced_jobs_identical;
        ] )
