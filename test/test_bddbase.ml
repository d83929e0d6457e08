open Testutil
module BF = Bddbase.Bruteforce
module Exact = Bddbase.Exact
module Fstate = Bddbase.Fstate
module O = Graphalgo.Ordering

let exact_float ?order ?eager g ~terminals =
  match Exact.reliability_float ?order ?eager g ~terminals with
  | Ok r -> r
  | Error (`Node_budget_exceeded n) -> Alcotest.failf "unexpected DNF at %d nodes" n

(* ---- brute force oracle ---- *)

let t_bf_single_edge () =
  let g = graph ~n:2 [ (0, 1, 0.37) ] in
  check_close "single edge" 0.37 (BF.reliability g ~terminals:[ 0; 1 ])

let t_bf_path () =
  let g = path4 0.8 in
  check_close "path ends" (0.8 ** 3.) (BF.reliability g ~terminals:[ 0; 3 ]);
  check_close "path all terminals" (0.8 ** 3.)
    (BF.reliability g ~terminals:[ 0; 1; 2; 3 ]);
  check_close "adjacent pair" 0.8 (BF.reliability g ~terminals:[ 0; 1 ])

let t_bf_parallel () =
  let g = graph ~n:2 [ (0, 1, 0.5); (0, 1, 0.4) ] in
  check_close "parallel pair" (1. -. (0.5 *. 0.6)) (BF.reliability g ~terminals:[ 0; 1 ])

let t_bf_cycle () =
  let g = cycle4 0.5 in
  let p2 = 0.25 in
  check_close "opposite corners" (1. -. ((1. -. p2) ** 2.))
    (BF.reliability g ~terminals:[ 0; 2 ])

let t_bf_fig1 () =
  (* The paper's Figure 1 walkthrough: every possible graph with four
     existent and two non-existent edges has probability 0.0216. *)
  let g = fig1 () in
  let r = BF.reliability g ~terminals:[ 0; 3; 4 ] in
  Alcotest.(check bool) (Printf.sprintf "reliability %.6f in (0,1)" r) true
    (r > 0. && r < 1.)

let t_bf_degenerate () =
  let g = path4 0.5 in
  check_close "k=1" 1. (BF.reliability g ~terminals:[ 2 ]);
  let disconnected = graph ~n:4 [ (0, 1, 0.9); (2, 3, 0.9) ] in
  check_close "separated" 0. (BF.reliability disconnected ~terminals:[ 0; 3 ]);
  let certain = path4 1.0 in
  check_close "all p=1" 1. (BF.reliability certain ~terminals:[ 0; 3 ]);
  let dead = path4 0.0 in
  check_close "all p=0" 0. (BF.reliability dead ~terminals:[ 0; 3 ])

let t_bf_refuses_large () =
  let es = List.init 26 (fun i -> (i, i + 1, 0.5)) in
  let g = graph ~n:27 es in
  Alcotest.check_raises "too many edges"
    (Invalid_argument "Bruteforce.reliability: 26 edges > 25") (fun () ->
      ignore (BF.reliability g ~terminals:[ 0; 26 ]))

(* ---- exact BDD ---- *)

let t_exact_matches_bf_known () =
  List.iter
    (fun (name, g, ts) ->
      let expect = BF.reliability g ~terminals:ts in
      check_close ~eps:1e-12 (name ^ " lazy") expect (exact_float g ~terminals:ts);
      check_close ~eps:1e-12 (name ^ " eager") expect
        (exact_float ~eager:true g ~terminals:ts))
    [
      ("single edge", graph ~n:2 [ (0, 1, 0.37) ], [ 0; 1 ]);
      ("path", path4 0.8, [ 0; 3 ]);
      ("path all", path4 0.8, [ 0; 1; 2; 3 ]);
      ("cycle", cycle4 0.5, [ 0; 2 ]);
      ("fig1 k=3", fig1 (), [ 0; 3; 4 ]);
      ("fig1 k=2", fig1 (), [ 0; 4 ]);
      ("fig1 k=5", fig1 (), [ 0; 1; 2; 3; 4 ]);
      ("two triangles", two_triangles 0.6, [ 0; 4 ]);
      ("parallel", graph ~n:2 [ (0, 1, 0.5); (0, 1, 0.4) ], [ 0; 1 ]);
      ("with self loop", graph ~n:3 [ (0, 0, 0.5); (0, 1, 0.7); (1, 2, 0.7) ], [ 0; 2 ]);
    ]

let t_exact_degenerate () =
  let g = path4 0.5 in
  check_close "k=1" 1. (exact_float g ~terminals:[ 1 ]);
  let disconnected = graph ~n:4 [ (0, 1, 0.9); (2, 3, 0.9) ] in
  check_close "separated" 0. (exact_float disconnected ~terminals:[ 0; 3 ]);
  let isolated = graph ~n:3 [ (0, 1, 0.5) ] in
  check_close "isolated terminal" 0. (exact_float isolated ~terminals:[ 0; 2 ])

let t_exact_budget () =
  let g = two_triangles 0.5 in
  match Exact.reliability ~node_budget:2 g ~terminals:[ 0; 4 ] with
  | Error (`Node_budget_exceeded n) ->
    Alcotest.(check bool) "budget exceeded count" true (n > 2)
  | Ok _ -> Alcotest.fail "expected DNF"

let t_exact_stats () =
  let g = fig1 () in
  match Exact.reliability g ~terminals:[ 0; 3; 4 ] with
  | Error _ -> Alcotest.fail "unexpected DNF"
  | Ok (r, st) ->
    Alcotest.(check int) "layers" 6 st.Exact.layers;
    Alcotest.(check bool) "nodes positive" true (st.Exact.total_nodes > 0);
    check_close ~eps:1e-12 "pc is result" (Xprob.to_float_exn r)
      (Xprob.to_float_exn st.Exact.pc);
    check_close ~eps:1e-12 "pc + pd = 1" 1.
      (Xprob.to_float_exn (Xprob.add st.Exact.pc st.Exact.pd))

let t_eager_never_larger () =
  let g = two_triangles 0.5 in
  let sz eager =
    match Exact.reliability ~eager g ~terminals:[ 0; 4 ] with
    | Ok (_, st) -> st.Exact.total_nodes
    | Error _ -> Alcotest.fail "DNF"
  in
  Alcotest.(check bool) "eager <= lazy" true (sz true <= sz false)

(* ---- property tests against brute force ---- *)

let arb_graph_ts ~max_n ~max_m ~max_k =
  let gen =
    QCheck.Gen.(
      int_range 2 max_n >>= fun n ->
      int_range 1 max_m >>= fun m ->
      int_range 2 (min max_k n) >>= fun k ->
      let edge =
        map3
          (fun u v p -> (u mod n, v mod n, float_of_int (p mod 11) /. 10.))
          small_nat small_nat small_nat
      in
      list_repeat m edge >>= fun es ->
      (* k distinct terminals via a shuffled prefix. *)
      let perm = Array.init n Fun.id in
      map
        (fun seed ->
          Prng.shuffle (Prng.create seed) perm;
          (n, es, Array.to_list (Array.sub perm 0 k)))
        int)
  in
  QCheck.make
    ~print:(fun (n, es, ts) ->
      Printf.sprintf "n=%d ts=[%s] es=[%s]" n
        (String.concat ";" (List.map string_of_int ts))
        (String.concat " "
           (List.map (fun (u, v, p) -> Printf.sprintf "(%d,%d,%.1f)" u v p) es)))
    gen

let prop_exact_matches_bruteforce =
  QCheck.Test.make ~name:"exact BDD = brute force (all orders, both modes)"
    ~count:250 (arb_graph_ts ~max_n:8 ~max_m:12 ~max_k:4)
    (fun (n, es, ts) ->
      let g = graph ~n es in
      let expect = BF.reliability g ~terminals:ts in
      List.for_all
        (fun (order, eager) ->
          let got = exact_float ~order:(O.order_edges order g) ~eager g ~terminals:ts in
          Float.abs (got -. expect) <= 1e-9)
        [ (O.Natural, false); (O.Bfs, false); (O.Natural, true); (O.Bfs, true);
          (O.Random 3, true) ])

let prop_pc_pd_sum_to_one =
  QCheck.Test.make ~name:"pc + pd = 1 when construction completes" ~count:150
    (arb_graph_ts ~max_n:8 ~max_m:12 ~max_k:3)
    (fun (n, es, ts) ->
      let g = graph ~n es in
      match Exact.reliability g ~terminals:ts with
      | Error _ -> false
      | Ok (_, st) ->
        Float.abs (Xprob.to_float_exn (Xprob.add st.Exact.pc st.Exact.pd) -. 1.)
        <= 1e-9)

(* ---- descend: unbiased completion sampling ---- *)

let t_descend_estimates_reliability () =
  let g = fig1 () in
  let ts = [ 0; 3; 4 ] in
  let expect = BF.reliability g ~terminals:ts in
  let order = O.best_order g in
  let ctx = Fstate.make g ~order ~terminals:ts in
  let r = rng () in
  let s = 40_000 in
  let hits = ref 0 in
  for _ = 1 to s do
    if Check.Reference.descend ctx ~eager:true ~pos:0 Fstate.initial
         ~bernoulli:(fun p -> Prng.bernoulli r p)
    then incr hits
  done;
  let est = float_of_int !hits /. float_of_int s in
  let sigma = sqrt (expect *. (1. -. expect) /. float_of_int s) in
  Alcotest.(check bool)
    (Printf.sprintf "estimate %.4f within 5 sigma of %.4f" est expect)
    true
    (Float.abs (est -. expect) <= 5. *. sigma)

let t_descend_from_intermediate () =
  (* Step manually one layer, then descend from both children; the
     weighted average must equal the exact reliability. *)
  let g = path4 0.5 in
  let ts = [ 0; 3 ] in
  let order = Array.init 3 Fun.id in
  let ctx = Fstate.make g ~order ~terminals:ts in
  let expect = BF.reliability g ~terminals:ts in
  let r = rng () in
  let est_from st pos =
    let s = 40_000 in
    let hits = ref 0 in
    for _ = 1 to s do
      if Check.Reference.descend ctx ~eager:true ~pos st
           ~bernoulli:(fun p -> Prng.bernoulli r p)
      then incr hits
    done;
    float_of_int !hits /. float_of_int s
  in
  match Fstate.step ctx ~eager:true ~pos:0 Fstate.initial ~exists:true with
  | Fstate.Live st ->
    (* Non-existent first edge of a path disconnects terminal 0. *)
    (match Fstate.step ctx ~eager:true ~pos:0 Fstate.initial ~exists:false with
    | Fstate.Sink0 -> ()
    | _ -> Alcotest.fail "expected sink0 on missing first path edge");
    let est = 0.5 *. est_from st 1 in
    Alcotest.(check bool)
      (Printf.sprintf "weighted estimate %.4f ~ %.4f" est expect)
      true
      (Float.abs (est -. expect) <= 0.02)
  | _ -> Alcotest.fail "expected live state"

(* ---- fstate internals ---- *)

let t_fstate_rejects_bad_input () =
  let g = path4 0.5 in
  let order = Array.init 3 Fun.id in
  Alcotest.check_raises "k=1" (Invalid_argument "Fstate.make: need at least two terminals")
    (fun () -> ignore (Fstate.make g ~order ~terminals:[ 0 ]));
  let isolated = graph ~n:3 [ (0, 1, 0.5) ] in
  Alcotest.check_raises "isolated terminal"
    (Invalid_argument "Fstate.make: isolated terminal (reliability is trivially zero)")
    (fun () -> ignore (Fstate.make isolated ~order:[| 0 |] ~terminals:[ 0; 2 ]))

let t_fstate_keys () =
  let g = fig1 () in
  let ts = [ 0; 3; 4 ] in
  let ctx = Fstate.make g ~order:(Array.init 6 Fun.id) ~terminals:ts in
  match Fstate.step ctx ~eager:true ~pos:0 Fstate.initial ~exists:true with
  | Fstate.Live st ->
    Alcotest.(check bool) "exact key at least as long as flags key" true
      (Array.length (Fstate.key_exact st) = Array.length (Fstate.key_flags st));
    Alcotest.(check bool) "component count positive" true (Fstate.component_count st > 0)
  | _ -> Alcotest.fail "expected live"

let t_heuristic_monotone_in_pn () =
  let g = fig1 () in
  let ts = [ 0; 3; 4 ] in
  let ctx = Fstate.make g ~order:(Array.init 6 Fun.id) ~terminals:ts in
  match Fstate.step ctx ~eager:true ~pos:0 Fstate.initial ~exists:true with
  | Fstate.Live st ->
    (* Remaining degrees once edge 0-1 is processed. *)
    let rem = [| 1; 2; 2; 3; 2 |] in
    let h1 = Fstate.heuristic_log2 ctx ~rem st ~log2_pn:(-1.) in
    let h2 = Fstate.heuristic_log2 ctx ~rem st ~log2_pn:(-10.) in
    Alcotest.(check bool) "higher pn, higher priority" true (h1 > h2)
  | _ -> Alcotest.fail "expected live"

let suite =
  ( "bddbase",
    [
      Alcotest.test_case "bf: single edge" `Quick t_bf_single_edge;
      Alcotest.test_case "bf: path" `Quick t_bf_path;
      Alcotest.test_case "bf: parallel" `Quick t_bf_parallel;
      Alcotest.test_case "bf: cycle" `Quick t_bf_cycle;
      Alcotest.test_case "bf: fig1" `Quick t_bf_fig1;
      Alcotest.test_case "bf: degenerate cases" `Quick t_bf_degenerate;
      Alcotest.test_case "bf: refuses large input" `Quick t_bf_refuses_large;
      Alcotest.test_case "exact = brute force on known graphs" `Quick t_exact_matches_bf_known;
      Alcotest.test_case "exact: degenerate cases" `Quick t_exact_degenerate;
      Alcotest.test_case "exact: node budget DNF" `Quick t_exact_budget;
      Alcotest.test_case "exact: stats" `Quick t_exact_stats;
      Alcotest.test_case "eager BDD never larger" `Quick t_eager_never_larger;
      Alcotest.test_case "descend estimates R" `Slow t_descend_estimates_reliability;
      Alcotest.test_case "descend from intermediate state" `Slow t_descend_from_intermediate;
      Alcotest.test_case "fstate input validation" `Quick t_fstate_rejects_bad_input;
      Alcotest.test_case "fstate keys" `Quick t_fstate_keys;
      Alcotest.test_case "heuristic monotone in pn" `Quick t_heuristic_monotone_in_pn;
    ]
    @ qtests [ prop_exact_matches_bruteforce; prop_pc_pd_sum_to_one ] )
