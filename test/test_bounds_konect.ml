open Testutil
module B = Netrel.Bounds
module BF = Bddbase.Bruteforce

(* ---- anytime bounds ---- *)

let t_bounds_exact_small () =
  let g = fig1 () in
  let ts = [ 0; 3; 4 ] in
  let expect = BF.reliability g ~terminals:ts in
  let b = B.compute g ~terminals:ts in
  Alcotest.(check bool) "exact" true b.B.exact;
  check_close ~eps:1e-9 "lower" expect b.B.lower;
  check_close ~eps:1e-9 "upper" expect b.B.upper

let t_bounds_contain_truth_narrow () =
  let g = two_triangles 0.6 in
  let ts = [ 0; 4 ] in
  let expect = BF.reliability g ~terminals:ts in
  let b = B.compute ~width:1 ~extension:false g ~terminals:ts in
  Alcotest.(check bool) "not exact" false b.B.exact;
  Alcotest.(check bool)
    (Printf.sprintf "%.4f in [%.4f, %.4f]" expect b.B.lower b.B.upper)
    true
    (b.B.lower <= expect +. 1e-9 && expect <= b.B.upper +. 1e-9)

let t_bounds_decides () =
  let g = fig1 () in
  let ts = [ 0; 3; 4 ] in
  let expect = BF.reliability g ~terminals:ts in
  let b = B.compute g ~terminals:ts in
  Alcotest.(check bool) "above low threshold" true
    (B.decides b ~threshold:(expect /. 2.) = `Above);
  Alcotest.(check bool) "below high threshold" true
    (B.decides b ~threshold:((expect +. 1.) /. 2.) = `Below);
  let loose = { b with B.lower = 0.1; B.upper = 0.9 } in
  Alcotest.(check bool) "unknown in between" true
    (B.decides loose ~threshold:0.5 = `Unknown)

let prop_bounds_always_valid =
  QCheck.Test.make ~name:"anytime bounds contain brute force R" ~count:100
    (Test_bddbase.arb_graph_ts ~max_n:7 ~max_m:10 ~max_k:3)
    (fun (n, es, ts) ->
      let g = graph ~n es in
      let expect = BF.reliability g ~terminals:ts in
      let b = B.compute ~width:2 g ~terminals:ts in
      b.B.lower <= expect +. 1e-9 && expect <= b.B.upper +. 1e-9)

let suite =
  ( "bounds-konect",
    [
      Alcotest.test_case "bounds: exact on small graph" `Quick t_bounds_exact_small;
      Alcotest.test_case "bounds: narrow width still valid" `Quick
        t_bounds_contain_truth_narrow;
      Alcotest.test_case "bounds: threshold decisions" `Quick t_bounds_decides;
    ]
    @ qtests [ prop_bounds_always_valid ] )
