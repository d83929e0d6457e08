(* End-to-end flows across the whole stack: dataset generation ->
   preprocessing -> estimation, cross-method consistency, and
   monotonicity of the bounds in the construction budget. *)

open Testutil
module S = Netrel.S2bdd
module R = Netrel.Reliability
module B = Netrel.Bounds
module BF = Bddbase.Bruteforce
module D = Workload.Datasets

let t_dataset_to_estimate () =
  (* The full user journey on a generated dataset. *)
  let d = D.tokyo ~scale:0.12 () in
  let g = d.D.graph in
  let ts = Workload.Generators.random_terminals ~seed:3 g ~k:4 in
  let config = { S.default_config with S.samples = 2_000; S.width = 500 } in
  let rep = R.estimate ~config g ~terminals:ts in
  Alcotest.(check bool) "value in [0,1]" true (rep.R.value >= 0. && rep.R.value <= 1.);
  Alcotest.(check bool) "lower <= value <= upper" true
    (rep.R.lower <= rep.R.value +. 1e-12 && rep.R.value <= rep.R.upper +. 1e-12);
  Alcotest.(check bool) "bounds sane" true (rep.R.lower <= rep.R.upper +. 1e-12)

let t_exact_flag_collapses_bounds () =
  let g = (D.am_rv ()).D.graph in
  let ts = Workload.Generators.random_terminals ~seed:5 g ~k:8 in
  let rep = R.estimate g ~terminals:ts in
  Alcotest.(check bool) "exact" true rep.R.exact;
  check_close ~eps:1e-15 "lower = upper" rep.R.lower rep.R.upper;
  check_close ~eps:1e-15 "value = lower" rep.R.lower rep.R.value

let t_methods_agree_on_small () =
  (* All estimation paths agree (within sampling noise) on fig1. *)
  let g = fig1 () in
  let ts = [ 0; 3; 4 ] in
  let exact = BF.reliability g ~terminals:ts in
  let pro = (R.estimate g ~terminals:ts).R.value in
  let mc = (Mcsampling.monte_carlo ~seed:2 g ~terminals:ts ~samples:50_000).Mcsampling.value in
  let fact =
    match Bddbase.Factoring.reliability_float g ~terminals:ts with
    | Ok r -> r
    | Error _ -> Alcotest.fail "factoring budget"
  in
  check_close ~eps:1e-9 "pro = exact" exact pro;
  check_close ~eps:1e-9 "factoring = exact" exact fact;
  Alcotest.(check bool) "mc close" true (Float.abs (mc -. exact) < 0.02)

let t_bounds_monotone_in_width () =
  (* With a fixed edge order, a wider cap keeps a superset of nodes, so
     both bounds can only tighten. *)
  let g = two_triangles 0.6 in
  let ts = [ 0; 4 ] in
  let order = `Explicit (Graphalgo.Ordering.order_edges Graphalgo.Ordering.Bfs g) in
  let run w =
    let config = { S.default_config with S.width = w; S.samples = 50; S.order = order } in
    S.estimate ~config g ~terminals:ts
  in
  let widths = [ 1; 2; 4; 8; 64 ] in
  let results = List.map run widths in
  let rec mono = function
    | a :: (b :: _ as rest) ->
      a.S.lower <= b.S.lower +. 1e-12
      && b.S.upper <= a.S.upper +. 1e-12
      && mono rest
    | _ -> true
  in
  Alcotest.(check bool) "bounds tighten with width" true (mono results);
  let last = List.nth results (List.length results - 1) in
  Alcotest.(check bool) "widest is exact" true last.S.exact

let t_report_determinism () =
  let g = (D.dblp1 ~scale:0.05 ()).D.graph in
  let ts = Workload.Generators.random_terminals ~seed:9 g ~k:5 in
  let config = { S.default_config with S.samples = 500; S.width = 200 } in
  let a = R.estimate ~config g ~terminals:ts in
  let b = R.estimate ~config g ~terminals:ts in
  check_close "same value" a.R.value b.R.value;
  Alcotest.(check int) "same descents" a.R.samples_drawn b.R.samples_drawn;
  Alcotest.(check int) "same s'" a.R.s_reduced b.R.s_reduced

let t_zero_probability_bridge () =
  (* A p=0 bridge between the terminals forces R = 0 through the
     decomposition product. *)
  let g =
    graph ~n:6
      [ (0, 1, 0.9); (1, 2, 0.9); (2, 0, 0.9); (2, 3, 0.0); (3, 4, 0.9);
        (4, 5, 0.9); (5, 3, 0.9) ]
  in
  let rep = R.estimate g ~terminals:[ 0; 4 ] in
  check_close "R = 0 through dead bridge" 0. rep.R.value;
  check_close "upper also 0" 0. rep.R.upper

let t_certain_bridge () =
  (* A p=1 bridge contributes factor 1. *)
  let g = graph ~n:4 [ (0, 1, 0.5); (0, 1, 0.5); (1, 2, 1.0); (2, 3, 0.5); (2, 3, 0.5) ] in
  let expect = BF.reliability g ~terminals:[ 0; 3 ] in
  let rep = R.estimate g ~terminals:[ 0; 3 ] in
  Alcotest.(check bool) "exact" true rep.R.exact;
  check_close ~eps:1e-9 "matches" expect rep.R.value

let t_bounds_api_on_dataset () =
  let g = (D.nyc ~scale:0.1 ()).D.graph in
  let ts = Workload.Generators.random_terminals ~seed:2 g ~k:6 in
  let b = B.compute ~width:300 g ~terminals:ts in
  Alcotest.(check bool) "interval sane" true (0. <= b.B.lower && b.B.lower <= b.B.upper && b.B.upper <= 1.)

(* Regression: [Bounds.compute] used to run the construction with a
   one-sample budget, which makes the Theorem-1 budget s' = 0 and stops
   at the first saturated layer. On DBLP1 at w = 1,000 that proved only
   R <= 0.3957597033, where the estimator's own construction at the
   same width proves R <= 0.242405355. The two must be the same
   construction, so the same bounds. *)
let t_bounds_match_estimate_dblp1 () =
  let g = (D.dblp1 ~seed:1 ()).D.graph in
  let ts = [ 2358; 193; 2271; 2247; 133 ] in
  let b = B.compute ~width:1000 g ~terminals:ts in
  let rep =
    R.estimate ~config:{ S.default_config with S.width = 1000 } g ~terminals:ts
  in
  let bits = Int64.bits_of_float in
  Alcotest.(check int64) "lower" (bits rep.R.lower) (bits b.B.lower);
  Alcotest.(check int64) "upper" (bits rep.R.upper) (bits b.B.upper);
  Alcotest.(check string) "upper, printed" "0.242405355"
    (Printf.sprintf "%.10g" b.B.upper)

let t_pipeline_ht_statistical () =
  (* HT through the full pipeline (decomposition + S2BDD strata). *)
  let g = two_triangles 0.6 in
  let ts = [ 0; 4 ] in
  let expect = BF.reliability g ~terminals:ts in
  let trials = 200 in
  let values =
    Array.init trials (fun i ->
        let config =
          { S.default_config with S.samples = 100; S.width = 2;
            S.estimator = S.Horvitz_thompson; S.seed = 500 + i }
        in
        (R.estimate ~config g ~terminals:ts).R.value)
  in
  let mean = Array.fold_left ( +. ) 0. values /. float_of_int trials in
  let std =
    sqrt (Array.fold_left (fun a v -> a +. ((v -. mean) ** 2.)) 0. values
          /. float_of_int trials)
  in
  let tol = (5. *. std /. sqrt (float_of_int trials)) +. 1e-3 in
  Alcotest.(check bool)
    (Printf.sprintf "pipeline HT mean %.4f ~ %.4f" mean expect)
    true
    (Float.abs (mean -. expect) <= tol)

let suite =
  ( "integration",
    [
      Alcotest.test_case "dataset -> estimate journey" `Quick t_dataset_to_estimate;
      Alcotest.test_case "exact flag collapses bounds" `Quick t_exact_flag_collapses_bounds;
      Alcotest.test_case "all methods agree on fig1" `Slow t_methods_agree_on_small;
      Alcotest.test_case "bounds monotone in width" `Quick t_bounds_monotone_in_width;
      Alcotest.test_case "report determinism" `Quick t_report_determinism;
      Alcotest.test_case "zero-probability bridge" `Quick t_zero_probability_bridge;
      Alcotest.test_case "certain bridge" `Quick t_certain_bridge;
      Alcotest.test_case "bounds API on dataset" `Quick t_bounds_api_on_dataset;
      Alcotest.test_case "bounds = estimate's bounds on DBLP1 (regression)"
        `Quick t_bounds_match_estimate_dblp1;
      Alcotest.test_case "pipeline HT unbiased" `Slow t_pipeline_ht_statistical;
    ] )
