open Testutil
module BF = Bddbase.Bruteforce
module T = Preprocess.Transform
module P = Preprocess.Pipeline

let exact g ~terminals =
  match Bddbase.Exact.reliability_float g ~terminals with
  | Ok r -> r
  | Error _ -> Alcotest.fail "unexpected DNF"

(* Evaluate a pipeline outcome exactly, to compare with direct R. *)
let outcome_reliability = function
  | P.Trivial r -> Xprob.to_float_exn r
  | P.Reduced { pb; subproblems; _ } ->
    List.fold_left
      (fun acc (sp : P.subproblem) -> acc *. exact sp.P.graph ~terminals:sp.P.terminals)
      (Xprob.to_float_exn pb)
      subproblems

(* ---- transform ---- *)

let t_transform_series () =
  (* Path 0-1-2-3 with terminals {0,3}: collapses to one edge p^3. *)
  let tr = T.run (path4 0.8) ~terminals:[ 0; 3 ] in
  Alcotest.(check int) "two vertices" 2 (Ugraph.n_vertices tr.T.graph);
  Alcotest.(check int) "one edge" 1 (Ugraph.n_edges tr.T.graph);
  check_close "probability" (0.8 ** 3.) (Ugraph.edge tr.T.graph 0).Ugraph.p

let t_transform_parallel () =
  let g = graph ~n:2 [ (0, 1, 0.5); (0, 1, 0.4); (0, 1, 0.3) ] in
  let tr = T.run g ~terminals:[ 0; 1 ] in
  Alcotest.(check int) "one edge" 1 (Ugraph.n_edges tr.T.graph);
  check_close "combined probability"
    (1. -. (0.5 *. 0.6 *. 0.7))
    (Ugraph.edge tr.T.graph 0).Ugraph.p

let t_transform_loop () =
  let g = graph ~n:2 [ (0, 0, 0.9); (0, 1, 0.5) ] in
  let tr = T.run g ~terminals:[ 0; 1 ] in
  Alcotest.(check int) "loop dropped" 1 (Ugraph.n_edges tr.T.graph)

let t_transform_ear () =
  (* Terminals {0,3} on a path, plus an ear 1-4-5-1: the ear collapses
     to a self-loop and disappears. *)
  let g =
    graph ~n:6
      [ (0, 1, 0.5); (1, 2, 0.5); (2, 3, 0.5); (1, 4, 0.6); (4, 5, 0.6); (5, 1, 0.6) ]
  in
  let tr = T.run g ~terminals:[ 0; 3 ] in
  Alcotest.(check int) "collapses to single edge" 1 (Ugraph.n_edges tr.T.graph);
  check_close "p = 0.5^3" (0.5 ** 3.) (Ugraph.edge tr.T.graph 0).Ugraph.p

let t_transform_floating_cycle () =
  (* A terminal edge plus an unreachable terminal-free triangle. *)
  let g =
    graph ~n:5 [ (0, 1, 0.5); (2, 3, 0.6); (3, 4, 0.6); (4, 2, 0.6) ]
  in
  let tr = T.run g ~terminals:[ 0; 1 ] in
  Alcotest.(check int) "cycle deleted" 1 (Ugraph.n_edges tr.T.graph);
  Alcotest.(check int) "vertices compacted" 2 (Ugraph.n_vertices tr.T.graph)

let t_transform_dangling () =
  (* Pendant path 2-3-4 off a terminal edge 0-1 (attached at 1). *)
  let g = graph ~n:5 [ (0, 1, 0.5); (1, 2, 0.6); (2, 3, 0.6); (3, 4, 0.6) ] in
  let tr = T.run g ~terminals:[ 0; 1 ] in
  Alcotest.(check int) "pendants dropped" 1 (Ugraph.n_edges tr.T.graph)

let t_transform_keeps_terminal_degree2 () =
  (* A degree-2 terminal must not be contracted away. *)
  let tr = T.run (path4 0.8) ~terminals:[ 0; 1; 3 ] in
  Alcotest.(check int) "terminal 1 kept" 3 (Ugraph.n_vertices tr.T.graph);
  Alcotest.(check int) "edges merged around it" 2 (Ugraph.n_edges tr.T.graph)

let t_transform_parallel_stub () =
  (* A degree-2 non-terminal attached by two parallel edges to the same
     endpoint: the contraction walk's dead-edge stub branch. The stub
     can never reach a terminal, so it must vanish without touching
     R. *)
  let g = graph ~n:3 [ (0, 1, 0.5); (1, 2, 0.7); (1, 2, 0.6) ] in
  let direct = BF.reliability g ~terminals:[ 0; 1 ] in
  let tr = T.run g ~terminals:[ 0; 1 ] in
  Alcotest.(check int) "stub dropped" 1 (Ugraph.n_edges tr.T.graph);
  check_close ~eps:1e-12 "R preserved" direct
    (BF.reliability tr.T.graph ~terminals:tr.T.terminals)

let t_transform_nonterminal_closed_cycle () =
  (* A cycle of non-terminals hanging off a terminal: the chain walk
     returns to its anchor (a = b), leaving a self-loop that must then
     drop. *)
  let g =
    graph ~n:4 [ (0, 1, 0.5); (1, 2, 0.6); (2, 3, 0.6); (3, 1, 0.6) ]
  in
  let direct = BF.reliability g ~terminals:[ 0; 1 ] in
  let tr = T.run g ~terminals:[ 0; 1 ] in
  Alcotest.(check int) "cycle gone" 1 (Ugraph.n_edges tr.T.graph);
  check_close ~eps:1e-12 "R preserved" direct
    (BF.reliability tr.T.graph ~terminals:tr.T.terminals)

let t_transform_parallel_merge_order () =
  (* Regression: the stage-2 parallel-edge merge used to emit merged
     edges in Hashtbl bucket order, which depends on the key hash. The
     contract is first-occurrence order of the (normalized) endpoint
     pair in the input edge list. All vertices are terminals so no
     other rewrite reorders anything. *)
  let g =
    graph ~n:4 [ (2, 3, 0.5); (0, 1, 0.4); (3, 2, 0.5); (1, 0, 0.4); (1, 2, 0.3) ]
  in
  let tr = T.run g ~terminals:[ 0; 1; 2; 3 ] in
  Alcotest.(check int) "three merged edges" 3 (Ugraph.n_edges tr.T.graph);
  let pairs =
    List.init 3 (fun i ->
        let e = Ugraph.edge tr.T.graph i in
        (e.Ugraph.u, e.Ugraph.v))
  in
  Alcotest.(check (list (pair int int)))
    "first-occurrence order" [ (2, 3); (0, 1); (1, 2) ] pairs;
  check_close "merged p" (1. -. (0.5 *. 0.5)) (Ugraph.edge tr.T.graph 0).Ugraph.p

let t_transform_idempotent () =
  let g = two_triangles 0.5 in
  let tr = T.run g ~terminals:[ 0; 4 ] in
  let tr2 = T.run tr.T.graph ~terminals:tr.T.terminals in
  Alcotest.(check int) "second run is identity (edges)"
    (Ugraph.n_edges tr.T.graph) (Ugraph.n_edges tr2.T.graph);
  Alcotest.(check int) "second run took zero rounds... or one no-op" 0 tr2.T.rounds

(* ---- pipeline ---- *)

let t_pipeline_two_triangles () =
  let g = two_triangles 0.5 in
  match P.run g ~terminals:[ 0; 4 ] with
  | P.Trivial _ -> Alcotest.fail "expected reduction"
  | P.Reduced { pb; subproblems; stats } ->
    check_close "bridge probability" 0.5 (Xprob.to_float_exn pb);
    Alcotest.(check int) "two subproblems" 2 (List.length subproblems);
    Alcotest.(check int) "bridges" 1 stats.P.n_bridges;
    (* Each triangle with two terminals transforms: the two-path side
       becomes parallel edges which merge into one; so 2 or fewer edges
       per side. *)
    List.iter
      (fun (sp : P.subproblem) ->
        Alcotest.(check bool) "small subproblem" true (Ugraph.n_edges sp.P.graph <= 2))
      subproblems;
    Alcotest.(check bool) "ratio < 1" true (P.reduction_ratio stats < 1.)

let t_pipeline_trivial_cases () =
  let g = path4 0.5 in
  (match P.run g ~terminals:[ 2 ] with
  | P.Trivial r -> check_close "k=1" 1. (Xprob.to_float_exn r)
  | P.Reduced _ -> Alcotest.fail "expected trivial");
  let disconnected = graph ~n:4 [ (0, 1, 0.9); (2, 3, 0.9) ] in
  (match P.run disconnected ~terminals:[ 0; 3 ] with
  | P.Trivial r -> check_close "separated" 0. (Xprob.to_float_exn r)
  | P.Reduced _ -> Alcotest.fail "expected trivial");
  let isolated = graph ~n:3 [ (0, 1, 0.5) ] in
  match P.run isolated ~terminals:[ 0; 2 ] with
  | P.Trivial r -> check_close "isolated" 0. (Xprob.to_float_exn r)
  | P.Reduced _ -> Alcotest.fail "expected trivial"

let t_pipeline_path_fully_decomposes () =
  (* A pure path between the terminals decomposes into bridges only:
     no subproblems remain and pb is the whole reliability. *)
  let g = path4 0.8 in
  match P.run g ~terminals:[ 0; 3 ] with
  | P.Trivial _ -> Alcotest.fail "expected reduction"
  | P.Reduced { pb; subproblems; _ } ->
    Alcotest.(check int) "no subproblems" 0 (List.length subproblems);
    check_close "pb = p^3" (0.8 ** 3.) (Xprob.to_float_exn pb)

let t_pipeline_subproblem_order () =
  (* Regression: decompose used to list subproblems in Hashtbl bucket
     order of their component roots. The contract is ascending minimum
     original vertex id. Triangle {0,1,2} (p = 0.3) and 4-cycle
     {3,4,5,6} (p = 0.9) hang off the bridge 2-3; the triangle's
     component holds vertex 0 so it must come first, recognizable after
     transformation by its merged edge probability. *)
  let g =
    graph ~n:7
      [ (0, 1, 0.3); (1, 2, 0.3); (2, 0, 0.3); (2, 3, 0.8);
        (3, 4, 0.9); (4, 5, 0.9); (5, 6, 0.9); (6, 3, 0.9) ]
  in
  match P.run g ~terminals:[ 0; 1; 3; 5 ] with
  | P.Trivial _ -> Alcotest.fail "expected reduction"
  | P.Reduced { subproblems; _ } ->
    Alcotest.(check int) "two subproblems" 2 (List.length subproblems);
    (match subproblems with
    | [ tri; cyc ] ->
      (* The triangle survives the transform untouched (vertex 2 has
         degree 3 before the bridge splits off); the cycle's two
         degree-2 corners contract into one merged edge. *)
      Alcotest.(check int) "triangle first" 3 (Ugraph.n_edges tri.P.graph);
      check_close "triangle p" 0.3 (Ugraph.edge tri.P.graph 0).Ugraph.p;
      Alcotest.(check int) "cycle second" 1 (Ugraph.n_edges cyc.P.graph);
      check_close "cycle merged p"
        (1. -. ((1. -. (0.9 *. 0.9)) ** 2.))
        (Ugraph.edge cyc.P.graph 0).Ugraph.p
    | _ -> assert false)

let t_pipeline_preserves_reliability_known () =
  List.iter
    (fun (name, g, ts) ->
      let direct = BF.reliability g ~terminals:ts in
      let via = outcome_reliability (P.run g ~terminals:ts) in
      check_close ~eps:1e-9 name direct via)
    [
      ("fig1", fig1 (), [ 0; 3; 4 ]);
      ("two triangles", two_triangles 0.6, [ 0; 4 ]);
      ("cycle", cycle4 0.5, [ 0; 2 ]);
      ("path k=3", path4 0.7, [ 0; 2; 3 ]);
      ( "barbell with pendant",
        graph ~n:8
          [ (0, 1, 0.5); (1, 2, 0.5); (2, 0, 0.5); (2, 3, 0.9); (3, 4, 0.8);
            (4, 5, 0.5); (5, 6, 0.5); (6, 4, 0.5); (5, 7, 0.4) ],
        [ 0; 6 ] );
    ]

(* ---- property tests ---- *)

let arb = Test_bddbase.arb_graph_ts

let prop_transform_preserves_reliability =
  QCheck.Test.make ~name:"transform preserves R exactly" ~count:300
    (arb ~max_n:8 ~max_m:12 ~max_k:4) (fun (n, es, ts) ->
      let g = graph ~n es in
      let direct = BF.reliability g ~terminals:ts in
      let tr = T.run g ~terminals:ts in
      QCheck.assume (Ugraph.n_edges tr.T.graph <= BF.max_edges);
      let after = BF.reliability tr.T.graph ~terminals:tr.T.terminals in
      Float.abs (direct -. after) <= 1e-9)

let prop_pipeline_preserves_reliability =
  QCheck.Test.make ~name:"pipeline preserves R = pb * prod Ri" ~count:300
    (arb ~max_n:9 ~max_m:13 ~max_k:4) (fun (n, es, ts) ->
      let g = graph ~n es in
      let direct = BF.reliability g ~terminals:ts in
      let via = outcome_reliability (P.run g ~terminals:ts) in
      Float.abs (direct -. via) <= 1e-9)

(* Random base graph with a planted walk corner-case gadget anchored at
   a base vertex: an ear whose contraction walk returns to its anchor
   (a = b), a parallel stub (the dead-edge branch), or a floating cycle
   of non-terminals. Terminals come from the base alone, so the gadget
   is always pure non-terminal structure the transform must erase or
   contract without moving R. *)
let arb_with_gadget =
  let gen =
    QCheck.Gen.(
      int_range 2 6 >>= fun n ->
      int_range 1 8 >>= fun m ->
      int_range 0 2 >>= fun gadget ->
      int_range 0 (n - 1) >>= fun anchor ->
      let edge =
        map3
          (fun u v p -> (u mod n, v mod n, float_of_int (p mod 11) /. 10.))
          small_nat small_nat small_nat
      in
      list_repeat m edge >>= fun es ->
      map2
        (fun seed praw ->
          let p = 0.1 +. (0.08 *. float_of_int (praw mod 11)) in
          let gadget_es, extra =
            match gadget with
            | 0 -> ([ (anchor, n, p); (n, n + 1, p); (n + 1, anchor, p) ], 2)
            | 1 -> ([ (anchor, n, p); (anchor, n, p) ], 1)
            | _ -> ([ (n, n + 1, p); (n + 1, n + 2, p); (n + 2, n, p) ], 3)
          in
          let perm = Array.init n Fun.id in
          Prng.shuffle (Prng.create seed) perm;
          (n + extra, es @ gadget_es, [ perm.(0); perm.(1) ]))
        int small_nat)
  in
  QCheck.make
    ~print:(fun (n, es, ts) ->
      Printf.sprintf "n=%d ts=[%s] es=[%s]" n
        (String.concat ";" (List.map string_of_int ts))
        (String.concat " "
           (List.map (fun (u, v, p) -> Printf.sprintf "(%d,%d,%.2f)" u v p) es)))
    gen

let prop_transform_preserves_reliability_gadgets =
  QCheck.Test.make ~name:"transform preserves R through walk corners" ~count:300
    arb_with_gadget (fun (n, es, ts) ->
      let g = graph ~n es in
      let direct = BF.reliability g ~terminals:ts in
      let tr = T.run g ~terminals:ts in
      QCheck.assume (Ugraph.n_edges tr.T.graph <= BF.max_edges);
      let after = BF.reliability tr.T.graph ~terminals:tr.T.terminals in
      Float.abs (direct -. after) <= 1e-9)

(* The full public exact path — Pipeline.run inside Reliability.exact,
   extension on — against brute force on random <= 10-vertex graphs
   (self-loops and parallel edges included by construction of the
   generator). *)
let prop_reliability_exact_extension_differential =
  QCheck.Test.make ~name:"Reliability.exact (ext) = brute force" ~count:300
    (arb ~max_n:10 ~max_m:14 ~max_k:4) (fun (n, es, ts) ->
      let g = graph ~n es in
      let direct = BF.reliability g ~terminals:ts in
      match Netrel.Reliability.exact ~extension:true g ~terminals:ts with
      | Error _ -> false
      | Ok r -> Float.abs (r -. direct) <= 1e-9)

let prop_pipeline_shrinks =
  QCheck.Test.make ~name:"pipeline never grows the problem" ~count:200
    (arb ~max_n:9 ~max_m:13 ~max_k:3) (fun (n, es, ts) ->
      let g = graph ~n es in
      match P.run g ~terminals:ts with
      | P.Trivial _ -> true
      | P.Reduced { stats; _ } ->
        stats.P.max_subproblem_edges <= stats.P.original_edges
        && stats.P.pruned_edges <= stats.P.original_edges
        && stats.P.final_edges <= stats.P.pruned_edges)

(* ---- bit identity against the list-based reference ---- *)

(* Everything a result is made of, floats as their bit patterns. *)
let graph_bits g =
  ( Ugraph.n_vertices g,
    List.init (Ugraph.n_edges g) (fun i ->
        let e = Ugraph.edge g i in
        (e.Ugraph.u, e.Ugraph.v, Int64.bits_of_float e.Ugraph.p)) )

let xprob_bits x =
  let mantissa, exponent = Xprob.mantissa_exponent x in
  (Int64.bits_of_float mantissa, exponent)

let same_transform (a : T.result) (b : T.result) =
  graph_bits a.T.graph = graph_bits b.T.graph
  && a.T.terminals = b.T.terminals
  && a.T.old_of_new = b.T.old_of_new
  && a.T.rounds = b.T.rounds

let same_outcome a b =
  match (a, b) with
  | P.Trivial x, P.Trivial y -> xprob_bits x = xprob_bits y
  | P.Reduced a, P.Reduced b ->
    xprob_bits a.pb = xprob_bits b.pb
    && a.stats = b.stats
    && List.length a.subproblems = List.length b.subproblems
    && List.for_all2
         (fun (x : P.subproblem) (y : P.subproblem) ->
           graph_bits x.P.graph = graph_bits y.P.graph
           && x.P.terminals = y.P.terminals)
         a.subproblems b.subproblems
  | _ -> false

let matches_reference (n, es, ts) =
  let g = graph ~n es in
  same_transform (T.run g ~terminals:ts) (Preprocess_ref.transform g ~terminals:ts)
  && same_outcome (P.run g ~terminals:ts) (Preprocess_ref.run g ~terminals:ts)

(* Sparse graphs with up to ~200 vertices, shaped to exercise every
   stage at once: a random tree (bridges, hence several subproblems),
   extra edges closing short cycles up the tree (small 2-edge-connected
   blocks with degree-2 chains) plus one long-range edge, pendant paths
   (pruned or dangling), parallel pairs and self-loops. Orientation and
   edge order are shuffled, and the probabilities mix both degenerate
   ends with arbitrary floats. *)
let sparse_case seed =
  let r = Prng.create seed in
  let base = 20 + Prng.int r 150 in
  let prob () =
    match Prng.int r 10 with
    | 0 -> 0.
    | 1 -> 1.
    | 2 -> float_of_int (Prng.int r 11) /. 10.
    | _ -> Prng.float r
  in
  let es = ref [] in
  let add u v = es := (u, v, prob ()) :: !es in
  let parent = Array.make base 0 in
  for v = 1 to base - 1 do
    (* Mostly recent parents, so the tree has long paths. *)
    parent.(v) <- max 0 (v - 1 - Prng.int r 4);
    add parent.(v) v
  done;
  for _ = 1 to 2 + Prng.int r (base / 5) do
    let v = Prng.int r base in
    let a = ref v in
    for _ = 1 to 2 + Prng.int r 3 do
      a := parent.(!a)
    done;
    if !a <> v then add v !a
  done;
  add (Prng.int r base) (Prng.int r base);
  let n = ref base in
  for _ = 0 to Prng.int r 5 do
    let prev = ref (Prng.int r base) in
    for _ = 1 to 1 + Prng.int r 5 do
      add !prev !n;
      prev := !n;
      incr n
    done
  done;
  let arr = Array.of_list !es in
  for _ = 0 to Prng.int r 4 do
    let u, v, _ = arr.(Prng.int r (Array.length arr)) in
    add v u
  done;
  for _ = 0 to Prng.int r 3 do
    let v = Prng.int r !n in
    add v v
  done;
  let arr = Array.of_list !es in
  Prng.shuffle r arr;
  let es =
    Array.to_list
      (Array.map (fun (u, v, p) -> if Prng.bool r then (v, u, p) else (u, v, p)) arr)
  in
  let perm = Array.init !n Fun.id in
  Prng.shuffle r perm;
  (!n, es, Array.to_list (Array.sub perm 0 (2 + Prng.int r 5)))

let arb_sparse =
  QCheck.make
    ~print:(fun (n, es, ts) ->
      Printf.sprintf "n=%d ts=[%s] es=[%s]" n
        (String.concat ";" (List.map string_of_int ts))
        (String.concat " "
           (List.map (fun (u, v, p) -> Printf.sprintf "(%d,%d,%h)" u v p) es)))
    QCheck.Gen.(map sparse_case int)

let prop_matches_reference_random =
  QCheck.Test.make ~name:"transform and pipeline = list reference (random)"
    ~count:500 (arb ~max_n:12 ~max_m:30 ~max_k:5) matches_reference

let prop_matches_reference_gadgets =
  QCheck.Test.make ~name:"transform and pipeline = list reference (gadgets)"
    ~count:500 arb_with_gadget matches_reference

let prop_matches_reference_sparse =
  QCheck.Test.make ~name:"transform and pipeline = list reference (sparse)"
    ~count:300 arb_sparse matches_reference

(* The sparse generator must actually reach the multi-subproblem,
   multi-round regime it exists for. *)
let t_sparse_generator_shape () =
  let cases = List.init 200 (fun i -> sparse_case (7919 * i)) in
  let outcomes =
    List.map (fun (n, es, ts) -> P.run (graph ~n es) ~terminals:ts) cases
  in
  let count f = List.length (List.filter f outcomes) in
  let several =
    count (function P.Reduced r -> r.stats.P.n_subproblems >= 2 | _ -> false)
  in
  let multi_round =
    count (function
      | P.Reduced r -> r.stats.P.transform_rounds > r.stats.P.n_subproblems
      | _ -> false)
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d/200 cases with >= 2 subproblems" several)
    true (several >= 100);
  Alcotest.(check bool)
    (Printf.sprintf "%d/200 cases with more rounds than subproblems" multi_round)
    true (multi_round >= 100)

(* Seeded larger cases: the NYC road grid and a 10^4-edge
   preferential-attachment graph, three terminal sets each. *)
let t_matches_reference_datasets () =
  let pa =
    Workload.Probability.uniform ~seed:3
      (Workload.Generators.preferential_attachment_large ~seed:2 ~n:3_400
         ~edges_per_vertex:3)
  in
  List.iter
    (fun (name, g) ->
      List.iter
        (fun (seed, k) ->
          let ts = Workload.Generators.random_terminals ~seed g ~k in
          Alcotest.(check bool)
            (Printf.sprintf "%s k=%d seed %d: transform" name k seed)
            true
            (same_transform (T.run g ~terminals:ts)
               (Preprocess_ref.transform g ~terminals:ts));
          Alcotest.(check bool)
            (Printf.sprintf "%s k=%d seed %d: pipeline" name k seed)
            true
            (same_outcome (P.run g ~terminals:ts)
               (Preprocess_ref.run g ~terminals:ts)))
        [ (1, 2); (2, 5); (3, 10) ])
    [ ("nyc", (Workload.Datasets.nyc ()).Workload.Datasets.graph); ("pa", pa) ]

let suite =
  ( "preprocess",
    [
      Alcotest.test_case "transform: series chain" `Quick t_transform_series;
      Alcotest.test_case "transform: parallel edges" `Quick t_transform_parallel;
      Alcotest.test_case "transform: self loop" `Quick t_transform_loop;
      Alcotest.test_case "transform: ear" `Quick t_transform_ear;
      Alcotest.test_case "transform: floating cycle" `Quick t_transform_floating_cycle;
      Alcotest.test_case "transform: dangling path" `Quick t_transform_dangling;
      Alcotest.test_case "transform: keeps degree-2 terminal" `Quick t_transform_keeps_terminal_degree2;
      Alcotest.test_case "transform: parallel stub" `Quick t_transform_parallel_stub;
      Alcotest.test_case "transform: non-terminal closed cycle" `Quick t_transform_nonterminal_closed_cycle;
      Alcotest.test_case "transform: parallel merge order" `Quick t_transform_parallel_merge_order;
      Alcotest.test_case "transform: idempotent" `Quick t_transform_idempotent;
      Alcotest.test_case "pipeline: two triangles" `Quick t_pipeline_two_triangles;
      Alcotest.test_case "pipeline: trivial cases" `Quick t_pipeline_trivial_cases;
      Alcotest.test_case "pipeline: subproblem order" `Quick t_pipeline_subproblem_order;
      Alcotest.test_case "pipeline: path decomposes fully" `Quick t_pipeline_path_fully_decomposes;
      Alcotest.test_case "pipeline preserves R (known)" `Quick t_pipeline_preserves_reliability_known;
      Alcotest.test_case "sparse generator reaches several subproblems" `Quick
        t_sparse_generator_shape;
      Alcotest.test_case "list reference: nyc and pa datasets" `Quick
        t_matches_reference_datasets;
    ]
    @ qtests
        [
          prop_transform_preserves_reliability;
          prop_transform_preserves_reliability_gadgets;
          prop_reliability_exact_extension_differential;
          prop_pipeline_preserves_reliability;
          prop_pipeline_shrinks;
          prop_matches_reference_random;
          prop_matches_reference_gadgets;
          prop_matches_reference_sparse;
        ] )
