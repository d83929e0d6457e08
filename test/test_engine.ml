open Testutil
module E = Engine
module R = Netrel.Reliability
module S = Netrel.S2bdd
module SD = Netrel.Statsdoc
module D = Workload.Datasets

let karate () = (D.karate ~seed:1 ()).D.graph
let assoc k e = List.assoc k (E.counters e)
let engine_with_obs () = E.create ~obs:(Obs.create ~clock:(fun () -> 0.) ()) ()

let t_method_names () =
  Alcotest.(check bool) "roundtrip" true
    (List.for_all
       (fun m -> E.method_of_name (E.method_name m) = Some m)
       [ E.Pro; E.Pro_ht; E.Sampling_mc; E.Sampling_ht ]);
  Alcotest.(check bool) "cli aliases" true
    (E.method_of_name "mc" = Some E.Sampling_mc
    && E.method_of_name "ht" = Some E.Sampling_ht);
  Alcotest.(check bool) "unknown rejected" true (E.method_of_name "nope" = None)

let t_digest () =
  let g = fig1 () in
  Alcotest.(check bool) "non-negative" true (E.digest g >= 0);
  Alcotest.(check int) "stable across rebuilds" (E.digest g) (E.digest (fig1 ()));
  Alcotest.(check bool) "probability changes digest" true
    (E.digest g <> E.digest (fig1 ~p:0.71 ()));
  let a = graph ~n:2 [ (0, 1, 0.5); (0, 1, 0.4) ]
  and b = graph ~n:2 [ (0, 1, 0.4); (0, 1, 0.5) ] in
  Alcotest.(check bool) "edge order is part of the identity" true
    (E.digest a <> E.digest b)

let t_cache_counters () =
  let e = engine_with_obs () in
  let g = fig1 () in
  let q = { E.default with E.terminals = [ 0; 4 ]; samples = 500; width = 64 } in
  let a1 = E.query e g q in
  Alcotest.(check bool) "first query computed" false a1.E.cached;
  let a2 = E.query e g q in
  Alcotest.(check bool) "repeat served from memo" true a2.E.cached;
  Alcotest.(check bool) "memo replay bit-identical" true (a1.E.value = a2.E.value);
  (* Same terminals, new seed: prep replays, result recomputes. *)
  ignore (E.query e g { q with E.seed = 2 });
  (* New terminal set: fresh prep. *)
  ignore (E.query e g { q with E.terminals = [ 0; 2; 4 ] });
  Alcotest.(check int) "queries" 4 (assoc "queries" e);
  Alcotest.(check int) "graph.miss" 1 (assoc "graph.miss" e);
  Alcotest.(check int) "graph.hit" 3 (assoc "graph.hit" e);
  Alcotest.(check int) "prep.miss" 2 (assoc "prep.miss" e);
  Alcotest.(check int) "prep.hit" 1 (assoc "prep.hit" e);
  Alcotest.(check int) "result.miss" 3 (assoc "result.miss" e);
  Alcotest.(check int) "result.hit" 1 (assoc "result.hit" e)

let t_query_validation () =
  let e = E.create () in
  let g = fig1 () in
  Alcotest.check_raises "jobs < 1" (Invalid_argument "Engine.query: jobs < 1")
    (fun () -> ignore (E.query e g { E.default with E.terminals = [ 0; 1 ]; jobs = 0 }));
  Alcotest.check_raises "bad terminals"
    (Invalid_argument "Ugraph.validate_terminals: vertex 9 out of range")
    (fun () -> ignore (E.query e g { E.default with E.terminals = [ 0; 9 ] }));
  let q = { E.default with E.terminals = [ 0; 4 ]; ci_width = Some 0.05 } in
  Alcotest.(check (result unit string))
    "pro-ht has no adaptive driver"
    (Error "--ci-width applies to pro / sampling-mc / sampling-ht only")
    (E.validate { q with E.method_ = E.Pro_ht });
  Alcotest.(check (result unit string)) "adaptive pro" (Ok ()) (E.validate q)

(* The acceptance bar: an engine-served answer must be bit-identical to
   the standalone from-scratch estimate at the same seed, at every jobs
   value — including the full Statsdoc result section. *)

let t_bit_identity_pro () =
  let g = karate () in
  let ts = [ 0; 33 ] in
  List.iter
    (fun jobs ->
      let e = E.create () in
      let a =
        E.query e g
          { E.default with E.terminals = ts; samples = 3000; width = 64; jobs }
      in
      let config =
        { S.default_config with S.samples = 3000; S.width = 64; S.seed = 1 }
      in
      let rep = R.estimate ~config ~jobs g ~terminals:ts in
      Alcotest.(check bool)
        (Printf.sprintf "pro value bit-identical at jobs %d" jobs)
        true (a.E.value = rep.R.value);
      Alcotest.(check bool)
        (Printf.sprintf "pro result doc identical at jobs %d" jobs)
        true
        (a.E.result = SD.result_of_report rep))
    [ 1; 2; 8 ]

let t_bit_identity_sampling () =
  let g = karate () in
  let ts = [ 0; 33 ] in
  List.iter
    (fun jobs ->
      let e = E.create () in
      let a =
        E.query e g
          { E.default with E.terminals = ts; method_ = E.Sampling_mc;
            samples = 4000; jobs }
      in
      let est = Mcsampling.monte_carlo ~seed:1 ~jobs g ~terminals:ts ~samples:4000 in
      Alcotest.(check bool)
        (Printf.sprintf "mc bit-identical at jobs %d" jobs)
        true
        (a.E.value = est.Mcsampling.value && a.E.result = SD.result_of_estimate est);
      let aht =
        E.query e g
          { E.default with E.terminals = ts; method_ = E.Sampling_ht;
            samples = 4000; jobs }
      in
      let ht = Mcsampling.horvitz_thompson ~seed:1 ~jobs g ~terminals:ts ~samples:4000 in
      Alcotest.(check bool)
        (Printf.sprintf "ht bit-identical at jobs %d" jobs)
        true
        (aht.E.value = ht.Mcsampling.value
        && aht.E.result = SD.result_of_estimate ht))
    [ 1; 2; 8 ]

let t_bit_identity_bitsliced () =
  let g = karate () in
  let ts = [ 0; 33 ] in
  let e = E.create () in
  let a =
    E.query e g
      { E.default with E.terminals = ts; method_ = E.Sampling_mc;
        samples = 4000; kernel = Mcsampling.Bitsliced }
  in
  let est =
    Mcsampling.monte_carlo ~seed:1 ~kernel:Mcsampling.Bitsliced g ~terminals:ts
      ~samples:4000
  in
  Alcotest.(check bool) "bitsliced bit-identical" true
    (a.E.value = est.Mcsampling.value && a.E.result = SD.result_of_estimate est)

let t_bit_identity_adaptive () =
  let g = karate () in
  let ts = [ 0; 33 ] in
  List.iter
    (fun jobs ->
      let e = E.create () in
      let a =
        E.query e g
          { E.default with E.terminals = ts; samples = 3000; width = 64;
            ci_width = Some 0.05; max_samples = Some 20_000; jobs }
      in
      let config =
        { S.default_config with S.samples = 3000; S.width = 64; S.seed = 1 }
      in
      let r =
        Adaptive.reliability ~config ~jobs ~max_samples:20_000 g ~terminals:ts
          ~ci_width:0.05
      in
      Alcotest.(check bool)
        (Printf.sprintf "adaptive pro bit-identical at jobs %d" jobs)
        true
        (a.E.value = r.Adaptive.value && a.E.exact = r.Adaptive.exact))
    [ 1; 2; 8 ]

let suite =
  ( "engine",
    [
      Alcotest.test_case "method names" `Quick t_method_names;
      Alcotest.test_case "graph digest" `Quick t_digest;
      Alcotest.test_case "cache counters" `Quick t_cache_counters;
      Alcotest.test_case "query validation" `Quick t_query_validation;
      Alcotest.test_case "bit identity: pro" `Quick t_bit_identity_pro;
      Alcotest.test_case "bit identity: sampling" `Quick t_bit_identity_sampling;
      Alcotest.test_case "bit identity: bitsliced" `Quick t_bit_identity_bitsliced;
      Alcotest.test_case "bit identity: adaptive" `Quick t_bit_identity_adaptive;
    ] )
