(* Allocation guards for the sampling inner loops. Every estimator draws
   one outcome per edge per possible graph, so a word allocated per edge
   is paid millions of times per query; these tests hold the draws, the
   connectivity round and the world-probability fold to what they are
   meant to allocate, measured as Gc.minor_words deltas. The kernel
   draws allocate nothing per edge: Prng reads each probability out of
   the snapshot's array itself, where a float passed to it from another
   module would be boxed (2 words per edge). *)

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
    (words_per_call ~reps:10_000 (fun () -> ignore (Prng.bool g)));
  (* A call allocates whole words or none, so under one word averaged
     over 10^4 calls is none. *)
  check_below "Prng.advance per call" ~limit:1.
    (words_per_call ~reps:10_000 (fun () -> Prng.advance g 100))

(* Extended-range arithmetic allocates its result and nothing more: the
   record (3 words) and its boxed mantissa (2). *)
let t_xprob_words () =
  let a = Xprob.of_float 0.3 and b = Xprob.pow_int (Xprob.of_float 0.7) 3_000 in
  let result = 5. in
  check_below "Xprob.scale per call" ~limit:(result +. 1.)
    (words_per_call ~reps:10_000 (fun () -> ignore (Xprob.scale 0.37 b)));
  check_below "Xprob.mul per call" ~limit:(result +. 1.)
    (words_per_call ~reps:10_000 (fun () -> ignore (Xprob.mul a b)));
  check_below "Xprob.add per call" ~limit:(result +. 1.)
    (words_per_call ~reps:10_000 (fun () -> ignore (Xprob.add a b)));
  check_below "Xprob.add, equal exponents, per call" ~limit:(result +. 1.)
    (words_per_call ~reps:10_000 (fun () -> ignore (Xprob.add a a)))

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
    check_below (what ^ " per edge") ~limit:1.
      (words_per_call ~reps:10 f /. float_of_int m)
  in
  per_edge "draw" (fun () -> K.draw sc c g);
  per_edge "draw_prob" (fun () -> K.draw_prob sc c g);
  per_edge "draw_bitsliced" (fun () -> K.draw_bitsliced sc c g);
  per_edge "draw_sub" (fun () -> K.draw_sub sc c ~pos:0 ~detail:true g);
  per_edge "draw_sub, no detail" (fun () ->
      K.draw_sub sc c ~pos:0 ~detail:false g)

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
         lane := (!lane + 1) mod Prng.Bitbatch.lanes));
  (* The world digests fold one packed word per 62 edges (162 here):
     a boxed int64 per word would cost about 970 words per call. *)
  K.transpose_worlds sc;
  check_below "world_hash per call" ~limit:64.
    (words_per_call ~reps:Prng.Bitbatch.lanes (fun () ->
         ignore (K.world_hash sc ~lane:!lane);
         lane := (!lane + 1) mod Prng.Bitbatch.lanes));
  K.draw_prob sc c g;
  check_below "mask_hash per call" ~limit:64.
    (words_per_call ~reps:100 (fun () -> ignore (K.mask_hash sc)));
  check_below "drawn_prob per call" ~limit:64.
    (words_per_call ~reps:100 (fun () -> ignore (K.drawn_prob sc c)));
  check_below "drawn_log_q per call" ~limit:64.
    (words_per_call ~reps:100 (fun () -> ignore (K.drawn_log_q sc c)))

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

(* The pro query path after preprocessing: the graph digest an engine
   query computes on a text graph, the frontier context every
   construction builds, and the construction itself. The digest and
   the context are linear passes that allocate their result arrays in
   the major heap, so their minor words per edge stay near zero; the
   construction allocates each layer's states, keys and masses, and
   the limit is half of what it allocated while every step built its
   working arrays, closures and a second key per deleted node. *)
let dblp1 = lazy (Workload.Datasets.dblp1 ~seed:1 ()).Workload.Datasets.graph
let dblp1_terminals = [ 2358; 193; 2271; 2247; 133 ]

(* A graph keeps its digest after the first call, so each call here
   gets a fresh copy of the graph (built outside the count) to fold. *)
let t_digest_words_per_edge () =
  let g = (Workload.Datasets.nyc ()).Workload.Datasets.graph in
  let reps = 10 in
  let copies =
    Array.init (reps + 1) (fun _ -> Ugraph.map_probs (fun _ e -> e.Ugraph.p) g)
  in
  let next = ref 0 in
  check_below "Bingraph.Digest.of_graph minor words per edge" ~limit:1.
    (words_per_call ~reps (fun () ->
         ignore (Bingraph.Digest.of_graph copies.(!next));
         incr next)
    /. float_of_int (Ugraph.n_edges g))

let t_fstate_make_words_per_edge () =
  let g = Lazy.force dblp1 in
  let order =
    Graphalgo.Ordering.order_edges (Graphalgo.Ordering.Bfs_from dblp1_terminals) g
  in
  check_below "Fstate.make minor words per edge" ~limit:1.
    (words_per_call ~reps:10 (fun () ->
         ignore (Bddbase.Fstate.make g ~order ~terminals:dblp1_terminals))
    /. float_of_int (Ugraph.n_edges g))

(* [Fstate.step] allocates its outcome and nothing else: nothing for a
   sink, the [Live] box (2 words) around the state it was given when
   the edge changes nothing, and otherwise that box around one array,
   a header word, the hash and vertex-count words and the merge key.
   Measured on every state of the first 14 layers of the DBLP1
   construction (at most 300 per layer), both branches. *)
let t_step_words () =
  let module F = Bddbase.Fstate in
  let g = Lazy.force dblp1 in
  let order =
    Graphalgo.Ordering.order_edges (Graphalgo.Ordering.Bfs_from dblp1_terminals) g
  in
  let ctx = F.make g ~order ~terminals:dblp1_terminals in
  let layer = ref [ F.initial ] and shared = ref 0 and built = ref 0 in
  for pos = 0 to 13 do
    let next = ref [] in
    List.iter
      (fun st ->
        List.iter
          (fun exists ->
            let expected =
              match F.step ctx ~eager:true ~pos st ~exists with
              | F.Live st' when st' == st ->
                incr shared;
                next := st' :: !next;
                2.
              | F.Live st' ->
                incr built;
                next := st' :: !next;
                float_of_int (Array.length (F.key_exact st') + 3 + 2)
              | F.Sink1 | F.Sink0 -> 0.
            in
            check_below
              (Printf.sprintf "Fstate.step at layer %d (%.0f expected)" pos expected)
              ~limit:(expected +. 1.)
              (words_per_call ~reps:20 (fun () ->
                   ignore (F.step ctx ~eager:true ~pos st ~exists))))
          [ true; false ])
      !layer;
    layer := List.filteri (fun i _ -> i < 300) !next
  done;
  if !shared = 0 || !built = 0 then
    Alcotest.failf "expected both kinds of live child, got %d shared and %d built"
      !shared !built

(* Half of the 4.685 M minor words the construction allocated before
   each state became one array and its own merge key. *)
let t_bounds_words () =
  let g = Lazy.force dblp1 in
  let config = { Netrel.S2bdd.default_config with Netrel.S2bdd.width = 1_000 } in
  check_below "S2bdd.bounds (DBLP1, k = 5, w = 1,000) minor words" ~limit:2.343e6
    (words_per_call ~reps:1 (fun () ->
         ignore (Netrel.S2bdd.bounds ~config g ~terminals:dblp1_terminals)))

(* Reliability search keeps one world at a time, so its memory does not
   grow with the sample count. Measured in the major heap, where a large
   block such as a samples x edges bit matrix goes straight from
   [Bytes.make] without passing the minor heap [words_per_call] reads.
   [Gc.minor] first promotes what the caller left in the minor heap, so
   that is not charged to [f]. *)
let major_words f =
  Gc.minor ();
  let _, _, before = Gc.counters () in
  f ();
  let _, _, after = Gc.counters () in
  after -. before

let t_search_memory () =
  let g = (Workload.Datasets.nyc ~seed:1 ()).Workload.Datasets.graph in
  let search samples () =
    ignore (Reach.search g ~sources:[ 0 ] ~eta:0.5 ~samples)
  in
  let small = major_words (search 1_000) in
  let large = major_words (search 10_000) in
  check_below "Reach.search on NYC: major words at 10^4 samples minus 10^3"
    ~limit:(float_of_int (Ugraph.n_edges g))
    (large -. small)

(* Loading a graph fills its struct of arrays and nothing else: three
   edge arrays, the adjacency (two slots per edge) and the offsets, about
   7 words per edge plus one per vertex. These bounds count every word
   a call allocates, over one call after a warm-up call and a full major
   collection (a cycle left running by an earlier test inflates the
   count by about two words per edge): the minor words from the live
   allocation pointer ([Gc.minor_words]), and the words allocated
   straight into the major heap as major minus promoted words
   ([Gc.counters]). [Gc.allocated_bytes] reads the minor words only as
   of the last minor collection, so it misses those of a call that ends
   before the next one. Measured on a 1.2e4-edge preferential-
   attachment graph, the shape of the perfbench [sample-large] graph at
   a tenth of its size. *)
let total_words_per_call f =
  f ();
  Gc.full_major ();
  let minor = Gc.minor_words () and _, promoted, major = Gc.counters () in
  f ();
  let _, promoted', major' = Gc.counters () in
  Gc.minor_words () -. minor +. (major' -. major) -. (promoted' -. promoted)

let pa_graph =
  lazy
    (Workload.Generators.preferential_attachment_large ~seed:1 ~n:4_000
       ~edges_per_vertex:3
    |> Workload.Probability.uniform ~seed:3)

let t_binary_load_words () =
  let g = Lazy.force pa_graph in
  let bg = Bingraph.of_graph g in
  check_below "Bingraph.to_graph words per edge" ~limit:9.
    (total_words_per_call (fun () -> ignore (Bingraph.to_graph bg))
    /. float_of_int (Ugraph.n_edges g))

let t_csr_view_words () =
  List.iter
    (fun g ->
      check_below
        (Printf.sprintf "Kernel.Csr.of_graph words (%d edges)" (Ugraph.n_edges g))
        ~limit:64.
        (total_words_per_call (fun () -> ignore (K.Csr.of_graph g))))
    [ (Workload.Datasets.karate ()).Workload.Datasets.graph; Lazy.force pa_graph ]

(* Both edge-list readers scan one buffer and allocate, per edge, the
   probability token and its boxed float (6 words) beside the edge
   arrays: 14 words per edge for the text file and 17 for SNAP, where
   the line-at-a-time readers they replaced took 24 and 51. The text
   file carries the writer's header, so its arrays are sized once; the
   SNAP file is the same edges without it, so its arrays double as they
   fill and its id table, one open-addressing int array, grows with the
   vertices. SNAP read 18.4 words per edge while its id table was a
   Hashtbl with a bucket per vertex and its probability an option. *)
let t_text_load_words () =
  let g = Lazy.force pa_graph in
  let path = Filename.temp_file "test_alloc_" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Ugraph.to_file path g;
  check_below "Ugraph.of_file words per edge" ~limit:16.
    (total_words_per_call (fun () -> ignore (Ugraph.of_file path))
    /. float_of_int (Ugraph.n_edges g))

let t_snap_load_words () =
  let g = Lazy.force pa_graph in
  let path = Filename.temp_file "test_alloc_" ".snap" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out path in
  for i = 0 to Ugraph.n_edges g - 1 do
    Printf.fprintf oc "%d %d %.17g\n" g.eu.(i) g.ev.(i) g.ep.(i)
  done;
  close_out oc;
  check_below "Bingraph.Snap.of_file words per edge" ~limit:18.
    (total_words_per_call (fun () -> ignore (Bingraph.Snap.of_file path))
    /. float_of_int (Ugraph.n_edges g))

(* A memo hit is a table lookup: the three counter bumps on a live
   observer (each builds its prefixed key, 26 words in all), the lookups'
   options and the answer copy marked [cached]. It allocated 217 words
   while the memo key was a formatted string and the digest of the
   graph was folded on every query. *)
let t_memo_hit_words () =
  let g = (Workload.Datasets.karate ()).Workload.Datasets.graph in
  let e = Engine.create ~obs:(Obs.create ()) () in
  let q = { Engine.default with Engine.terminals = [ 0; 33 ] } in
  ignore (Engine.query e g q);
  check_below "Engine.query memo hit minor words" ~limit:64.
    (words_per_call ~reps:1_000 (fun () -> ignore (Engine.query e g q)))

let suite =
  ( "alloc",
    [
      Alcotest.test_case "Prng draws allocate nothing" `Quick t_prng_draws;
      Alcotest.test_case "kernel draws: < 1 word per edge" `Quick
        t_per_edge_draws;
      Alcotest.test_case "connectivity and world_prob: O(1) per call"
        `Quick t_per_call_rounds;
      Alcotest.test_case "Pipeline.run: < 40 minor words per edge" `Quick
        t_pipeline_words_per_edge;
      Alcotest.test_case "graph digest: < 1 minor word per edge" `Quick
        t_digest_words_per_edge;
      Alcotest.test_case "frontier context: < 1 minor word per edge" `Quick
        t_fstate_make_words_per_edge;
      Alcotest.test_case "S2bdd.bounds on DBLP1: < 2.343 M minor words" `Quick
        t_bounds_words;
      Alcotest.test_case "Reach.search: memory flat in samples" `Slow
        t_search_memory;
      Alcotest.test_case "Bingraph.to_graph: < 9 words per edge" `Quick
        t_binary_load_words;
      Alcotest.test_case "Kernel.Csr.of_graph: < 64 words at any size" `Quick
        t_csr_view_words;
      Alcotest.test_case "text loader: < 16 words per edge" `Quick
        t_text_load_words;
      Alcotest.test_case "SNAP loader: < 18 words per edge" `Quick
        t_snap_load_words;
      Alcotest.test_case "Xprob scale, mul, add: only the result" `Quick
        t_xprob_words;
      Alcotest.test_case "Fstate.step: only its outcome" `Quick t_step_words;
      Alcotest.test_case "Engine.query memo hit: < 64 minor words" `Quick
        t_memo_hit_words;
    ] )
