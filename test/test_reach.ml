open Testutil
module BF = Bddbase.Bruteforce

let t_two_terminal () =
  let g = fig1 () in
  let expect = BF.reliability g ~terminals:[ 0; 4 ] in
  let rep = Reach.two_terminal g ~source:0 ~target:4 in
  Alcotest.(check bool) "exact" true rep.Netrel.Reliability.exact;
  check_close ~eps:1e-9 "value" expect rep.Netrel.Reliability.value

let t_two_terminal_validation () =
  let g = fig1 () in
  Alcotest.check_raises "same vertex" (Invalid_argument "Reach: source equals target")
    (fun () -> ignore (Reach.two_terminal g ~source:1 ~target:1));
  Alcotest.check_raises "range" (Invalid_argument "Reach: vertex out of range")
    (fun () -> ignore (Reach.two_terminal g ~source:0 ~target:99))

let t_hop_distance () =
  let g = Kernel.Csr.of_graph (path4 0.5) in
  let all = Array.make 3 true in
  Alcotest.(check (option int)) "end to end" (Some 3) (Reach.hop_distance g ~present:all 0 3);
  Alcotest.(check (option int)) "self" (Some 0) (Reach.hop_distance g ~present:all 2 2);
  let broken = [| true; false; true |] in
  Alcotest.(check (option int)) "cut" None (Reach.hop_distance g ~present:broken 0 3);
  Alcotest.(check (option int)) "within piece" (Some 1)
    (Reach.hop_distance g ~present:broken 2 3)

let t_distance_exact_path () =
  (* On a path with d >= length, the query equals plain s-t
     reliability; with d < length it is 0. *)
  let g = path4 0.8 in
  check_close "d=3 equals st-reliability" (0.8 ** 3.)
    (Reach.distance_constrained_exact g ~source:0 ~target:3 ~d:3);
  check_close "d=2 impossible" 0.
    (Reach.distance_constrained_exact g ~source:0 ~target:3 ~d:2);
  check_close "d huge" (0.8 ** 3.)
    (Reach.distance_constrained_exact g ~source:0 ~target:3 ~d:10)

let t_distance_exact_detour () =
  (* Cycle: direct edge (1 hop) or the long way (3 hops). *)
  let g = cycle4 0.5 in
  let direct = 0.5 in
  let detour = 0.5 ** 3. in
  check_close "d=1: direct only" direct
    (Reach.distance_constrained_exact g ~source:0 ~target:1 ~d:1);
  check_close "d=3: either route" (direct +. ((1. -. direct) *. detour))
    (Reach.distance_constrained_exact g ~source:0 ~target:1 ~d:3);
  (* d=3 unconstrained equals two-terminal reliability here. *)
  check_close "d=3 = st reliability" (BF.reliability g ~terminals:[ 0; 1 ])
    (Reach.distance_constrained_exact g ~source:0 ~target:1 ~d:3)

let t_distance_mc_statistics () =
  let g = cycle4 0.5 in
  let expect = Reach.distance_constrained_exact g ~source:0 ~target:1 ~d:3 in
  let est = Reach.distance_constrained_mc ~seed:5 g ~source:0 ~target:1 ~d:3 ~samples:40_000 in
  let sigma = sqrt (expect *. (1. -. expect) /. 40_000.) in
  Alcotest.(check bool)
    (Printf.sprintf "mc %.4f ~ %.4f" est.Reach.value expect)
    true
    (Float.abs (est.Reach.value -. expect) <= 5. *. sigma)

let t_distance_validation () =
  let g = path4 0.5 in
  Alcotest.check_raises "negative d" (Invalid_argument "Reach: negative distance bound")
    (fun () -> ignore (Reach.distance_constrained_exact g ~source:0 ~target:3 ~d:(-1)));
  Alcotest.check_raises "zero samples" (Invalid_argument "Reach: samples <= 0")
    (fun () ->
      ignore (Reach.distance_constrained_mc g ~source:0 ~target:3 ~d:2 ~samples:0))

(* ---- reliability search ---- *)

let t_search_certain_graph () =
  let g = two_triangles 1.0 in
  let results = Reach.search g ~sources:[ 0 ] ~eta:0.9 ~samples:100 in
  Alcotest.(check int) "all other vertices found" 5 (List.length results);
  List.iter
    (fun r -> check_close "certain reach" 1. r.Reach.reliability)
    results

let t_search_extremes () =
  let reach p eta =
    Reach.search (path4 p) ~sources:[ 0 ] ~eta ~samples:10
    |> List.map (fun r -> (r.Reach.vertex, r.Reach.reliability))
  in
  Alcotest.(check (list (pair int (float 0.))))
    "everything reached under p=1"
    [ (1, 1.); (2, 1.); (3, 1.) ]
    (reach 1.0 1.);
  Alcotest.(check (list (pair int (float 0.))))
    "nothing but the source under p=0"
    [ (1, 0.); (2, 0.); (3, 0.) ]
    (reach 0.0 0.);
  Alcotest.(check int) "none above 0 under p=0" 0
    (List.length (reach 0.0 0.01))

let t_search_threshold () =
  (* Path with decaying reach: vertices further from the source fall
     under the threshold. *)
  let g = path4 0.5 in
  let results = Reach.search ~seed:5 g ~sources:[ 0 ] ~eta:0.2 ~samples:20_000 in
  let found = List.map (fun r -> r.Reach.vertex) results in
  (* Reach probabilities: v1 = 0.5, v2 = 0.25, v3 = 0.125. *)
  Alcotest.(check (list int)) "v1 and v2 pass eta=0.2" [ 1; 2 ] found;
  let r1 = List.hd results in
  Alcotest.(check int) "sorted by reliability" 1 r1.Reach.vertex;
  Alcotest.(check bool) "estimate near 0.5" true
    (Float.abs (r1.Reach.reliability -. 0.5) < 0.02)

let t_search_excludes_sources () =
  let g = fig1 () in
  let results = Reach.search g ~sources:[ 0; 1 ] ~eta:0. ~samples:200 in
  Alcotest.(check bool) "sources excluded" true
    (List.for_all (fun r -> r.Reach.vertex <> 0 && r.Reach.vertex <> 1) results)

let t_search_validation () =
  let g = fig1 () in
  let search ?(sources = [ 0 ]) ?(eta = 0.5) ?(samples = 10) () =
    ignore (Reach.search g ~sources ~eta ~samples)
  in
  Alcotest.check_raises "bad eta"
    (Invalid_argument "Reach.search: eta outside [0,1]") (search ~eta:1.5);
  Alcotest.check_raises "nan eta"
    (Invalid_argument "Reach.search: eta outside [0,1]") (search ~eta:Float.nan);
  Alcotest.check_raises "zero samples" (Invalid_argument "Reach: samples <= 0")
    (search ~samples:0);
  Alcotest.check_raises "source range"
    (Invalid_argument "Ugraph.validate_terminals: vertex 5 out of range")
    (search ~sources:[ 0; 5 ]);
  Alcotest.check_raises "no sources"
    (Invalid_argument "Ugraph.validate_terminals: empty terminal set")
    (search ~sources:[])

let prop_distance_monotone_in_d =
  QCheck.Test.make ~name:"P(dist <= d) nondecreasing in d" ~count:100
    (Test_bddbase.arb_graph_ts ~max_n:6 ~max_m:9 ~max_k:2)
    (fun (n, es, ts) ->
      let g = graph ~n es in
      match ts with
      | [ s; t ] ->
        let values =
          List.map (fun d -> Reach.distance_constrained_exact g ~source:s ~target:t ~d)
            [ 0; 1; 2; 3; 10 ]
        in
        let rec mono = function
          | a :: (b :: _ as rest) -> a <= b +. 1e-12 && mono rest
          | _ -> true
        in
        mono values
      | _ -> QCheck.assume_fail ())

let prop_distance_unbounded_equals_st =
  QCheck.Test.make ~name:"P(dist <= n) = s-t reliability" ~count:100
    (Test_bddbase.arb_graph_ts ~max_n:6 ~max_m:9 ~max_k:2)
    (fun (n, es, ts) ->
      let g = graph ~n es in
      match ts with
      | [ s; t ] ->
        let unbounded = Reach.distance_constrained_exact g ~source:s ~target:t ~d:n in
        let st = BF.reliability g ~terminals:[ s; t ] in
        Float.abs (unbounded -. st) <= 1e-9
      | _ -> QCheck.assume_fail ())

let suite =
  ( "reach",
    [
      Alcotest.test_case "two-terminal = k=2 reliability" `Quick t_two_terminal;
      Alcotest.test_case "two-terminal validation" `Quick t_two_terminal_validation;
      Alcotest.test_case "hop distance" `Quick t_hop_distance;
      Alcotest.test_case "distance-constrained exact: path" `Quick t_distance_exact_path;
      Alcotest.test_case "distance-constrained exact: detour" `Quick t_distance_exact_detour;
      Alcotest.test_case "distance-constrained MC statistics" `Slow t_distance_mc_statistics;
      Alcotest.test_case "distance validation" `Quick t_distance_validation;
      Alcotest.test_case "search: certain graph" `Quick t_search_certain_graph;
      Alcotest.test_case "search: p in {0,1}" `Quick t_search_extremes;
      Alcotest.test_case "search: threshold" `Slow t_search_threshold;
      Alcotest.test_case "search: excludes sources" `Quick t_search_excludes_sources;
      Alcotest.test_case "search: validation" `Quick t_search_validation;
    ]
    @ qtests [ prop_distance_monotone_in_d; prop_distance_unbounded_equals_st ] )
