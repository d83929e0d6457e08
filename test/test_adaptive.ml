(* The sequential-stopping drivers (lib/adaptive). The contracts under
   test: the stopped interval is valid (never the zero-width Wald
   collapse at 0 hits), the stopping rule respects both the width
   target and the sample cap, and the whole run is replayable — for a
   fixed seed the result is bit-identical at every jobs value, and a
   stratified plan's per-stratum account depends only on the totals
   drawn, not on how rounds partition them. *)

open Testutil
module A = Adaptive
module S = Netrel.S2bdd
module D = Workload.Datasets

let karate () = (D.karate ~seed:1 ()).D.graph

let same_result msg (a : A.result) (b : A.result) =
  Alcotest.(check (float 0.)) (msg ^ ": value") a.A.value b.A.value;
  Alcotest.(check (float 0.)) (msg ^ ": lower") a.A.lower b.A.lower;
  Alcotest.(check (float 0.)) (msg ^ ": upper") a.A.upper b.A.upper;
  Alcotest.(check int) (msg ^ ": samples_used") a.A.samples_used b.A.samples_used;
  Alcotest.(check int) (msg ^ ": rounds") a.A.rounds b.A.rounds;
  Alcotest.(check bool) (msg ^ ": stop") true (a.A.stop = b.A.stop)

(* fig1 at ci_width 0.01 needs ~25k samples: a genuinely multi-round
   run, so the jobs sweep exercises mid-schedule chunk boundaries. *)
let t_mc_jobs_bit_identical () =
  let g = fig1 () in
  let run jobs =
    A.monte_carlo ~seed:7 ~jobs g ~terminals:[ 0; 4 ] ~ci_width:0.01
  in
  let r1 = run 1 in
  Alcotest.(check bool) "multi-round" true (r1.A.rounds >= 2);
  same_result "jobs 2" r1 (run 2);
  same_result "jobs 8" r1 (run 8)

let t_ht_jobs_bit_identical () =
  let g = fig1 () in
  let run jobs =
    A.horvitz_thompson ~seed:7 ~jobs g ~terminals:[ 0; 4 ] ~ci_width:0.01
  in
  let r1 = run 1 in
  same_result "jobs 2" r1 (run 2);
  same_result "jobs 8" r1 (run 8)

let t_width_reached () =
  let g = fig1 () in
  let r = A.monte_carlo ~seed:3 g ~terminals:[ 0; 4 ] ~ci_width:0.02 in
  Alcotest.(check bool) "stop reason" true (r.A.stop = A.Width_reached);
  Alcotest.(check bool) "width met" true (r.A.upper -. r.A.lower <= 0.02);
  Alcotest.(check bool) "value inside interval" true
    (r.A.lower <= r.A.value && r.A.value <= r.A.upper);
  check_close "realised width recorded" (r.A.upper -. r.A.lower) r.A.ci_width

let t_max_samples_cap () =
  let g = fig1 () in
  let r =
    A.monte_carlo ~seed:3 g ~terminals:[ 0; 4 ] ~ci_width:1e-4
      ~max_samples:10_000
  in
  Alcotest.(check bool) "stop reason" true (r.A.stop = A.Budget_exhausted);
  Alcotest.(check int) "cap spent exactly" 10_000 r.A.samples_used;
  Alcotest.(check bool) "target missed" true (r.A.ci_width > 1e-4)

(* The regression the PR fixes: 0 observed hits used to yield the
   degenerate Wald interval [v, v] — the stopping rule would have
   declared victory after one round at any target. Wilson keeps the
   upper bound away from 0, on the fixed path and the adaptive one. *)
let t_zero_hit_interval () =
  let g = graph ~n:2 [ (0, 1, 0.) ] in
  let e = Mcsampling.monte_carlo ~seed:1 g ~terminals:[ 0; 1 ] ~samples:500 in
  let lo, hi = Mcsampling.interval e in
  Alcotest.(check (float 0.)) "fixed path: 0-hit value" 0. e.Mcsampling.value;
  Alcotest.(check (float 0.)) "fixed path: 0-hit lower" 0. lo;
  Alcotest.(check bool) "fixed path: 0-hit upper > 0" true (hi > 0.);
  let r = A.monte_carlo ~seed:1 g ~terminals:[ 0; 1 ] ~ci_width:0.5 in
  Alcotest.(check (float 0.)) "adaptive: 0-hit lower" 0. r.A.lower;
  Alcotest.(check bool) "adaptive: 0-hit upper > 0" true (r.A.upper > 0.);
  Alcotest.(check bool) "adaptive: stopped on width" true
    (r.A.stop = A.Width_reached)

(* Per-stratum streams advance by totals only: drawing 3 then 2 from a
   plan must land exactly where one draw of 5 does. This is what makes
   the Neyman round schedule (and domain placement) irrelevant to the
   final account. *)
let t_plan_split_draws () =
  let g = karate () in
  (* A tight width keeps the plan at test scale (a few hundred strata,
     not the 200k a width-10k construction leaves on karate). *)
  let prepare () =
    match
      S.prepare ~config:{ S.default_config with S.seed = 11; S.width = 64 } g
        ~terminals:[ 0; 33 ]
    with
    | S.Sampling plan -> plan
    | S.Exact _ -> Alcotest.fail "expected a sampling plan on karate"
  in
  let p1 = prepare () and p2 = prepare () in
  let k = S.n_strata p1 in
  Alcotest.(check bool) "plan has strata" true (k > 0);
  Alcotest.(check int) "same construction" k (S.n_strata p2);
  for i = 0 to k - 1 do
    S.draw_stratum p1 i ~n:5;
    S.draw_stratum p2 i ~n:3;
    S.draw_stratum p2 i ~n:2;
    Alcotest.(check int) "drawn" (S.stratum_drawn p1 i) (S.stratum_drawn p2 i);
    Alcotest.(check int) "hits" (S.stratum_hits p1 i) (S.stratum_hits p2 i)
  done

let t_reliability_jobs_bit_identical () =
  let g = karate () in
  let run jobs =
    A.reliability
      ~config:{ S.default_config with S.seed = 5; S.width = 64 }
      ~jobs g ~terminals:[ 0; 33 ] ~ci_width:0.02
  in
  let r1 = run 1 in
  Alcotest.(check bool) "stop reason" true (r1.A.stop = A.Width_reached);
  Alcotest.(check bool) "width met" true (r1.A.ci_width <= 0.02);
  same_result "jobs 2" r1 (run 2);
  same_result "jobs 4" r1 (run 4)

let t_validation () =
  let g = fig1 () in
  Alcotest.check_raises "ci_width = 0 rejected"
    (Invalid_argument "Adaptive: ci_width must be in (0, 1)") (fun () ->
      ignore (A.monte_carlo g ~terminals:[ 0; 4 ] ~ci_width:0.));
  Alcotest.check_raises "ci_width >= 1 rejected"
    (Invalid_argument "Adaptive: ci_width must be in (0, 1)") (fun () ->
      ignore (A.horvitz_thompson g ~terminals:[ 0; 4 ] ~ci_width:1.));
  Alcotest.check_raises "max_samples < 1 rejected"
    (Invalid_argument "Adaptive: max_samples < 1") (fun () ->
      ignore (A.reliability g ~terminals:[ 0; 4 ] ~ci_width:0.1 ~max_samples:0))


(* Known answers of seeded runs at jobs 1: every result field, floats
   by their bits, then the [adaptive.round] and [adaptive.done] trace
   events in stream order, each with its args in order. The trace
   clock is pinned, so only content is compared. *)

let bits f = Printf.sprintf "%Lx" (Int64.bits_of_float f)

let render_arg (k, v) =
  Printf.sprintf "  %s %s" k
    (match v with
    | Trace.Int i -> string_of_int i
    | Trace.Float f -> bits f
    | Trace.Str s -> s
    | Trace.Bool b -> string_of_bool b)

let known_run f =
  let trace = Trace.create ~clock:(fun () -> 0.) () in
  let r : A.result = f trace in
  let fields =
    [
      "value " ^ bits r.A.value;
      "lower " ^ bits r.A.lower;
      "upper " ^ bits r.A.upper;
      "exact " ^ string_of_bool r.A.exact;
      "ci_width " ^ bits r.A.ci_width;
      "target_width " ^ bits r.A.target_width;
      "samples_used " ^ string_of_int r.A.samples_used;
      "samples_planned " ^ string_of_int r.A.samples_planned;
      "rounds " ^ string_of_int r.A.rounds;
      "stop " ^ A.stop_name r.A.stop;
    ]
  in
  let events =
    List.concat_map
      (fun (ev : Trace.event) ->
        if ev.name = "adaptive.round" || ev.name = "adaptive.done" then
          ev.name :: List.map render_arg ev.args
        else [])
      (Trace.events trace)
  in
  fields @ events

(* Two K5s (p = 0.5) joined by a p = 0.9 bridge: the pipeline leaves
   two subproblems, and at w = 2 both keep unresolved mass. *)
let two_k5 () =
  let k5 base =
    List.concat_map
      (fun a -> List.init (4 - a) (fun j -> (base + a, base + a + j + 1, 0.5)))
      [ 0; 1; 2; 3 ]
  in
  graph ~n:10 (k5 0 @ k5 5 @ [ (4, 5, 0.9) ])

let known_cases =
  let fig = [ 0; 4 ] and bs = Mcsampling.Bitsliced in
  let pro ?max_samples ~width g ~terminals ~ci_width trace =
    A.reliability ~trace ~config:{ S.default_config with S.width } ~jobs:1
      ?max_samples g ~terminals ~ci_width
  in
  [
    ( "mc flat, multi-round",
      fun trace ->
        A.monte_carlo ~trace ~seed:7 ~jobs:1 (fig1 ()) ~terminals:fig
          ~ci_width:0.01 );
    ( "mc bitsliced",
      fun trace ->
        A.monte_carlo ~trace ~seed:7 ~jobs:1 ~kernel:bs (fig1 ()) ~terminals:fig
          ~ci_width:0.01 );
    ( "ht flat",
      fun trace ->
        A.horvitz_thompson ~trace ~seed:7 ~jobs:1 (fig1 ()) ~terminals:fig
          ~ci_width:0.01 );
    ( "ht bitsliced",
      fun trace ->
        A.horvitz_thompson ~trace ~seed:7 ~jobs:1 ~kernel:bs (fig1 ())
          ~terminals:fig ~ci_width:0.01 );
    ( "mc max_samples stop",
      fun trace ->
        A.monte_carlo ~trace ~seed:3 ~jobs:1 ~max_samples:10_000 (fig1 ())
          ~terminals:fig ~ci_width:1e-4 );
    ( "mc k = 1",
      fun trace ->
        A.monte_carlo ~trace ~jobs:1 (fig1 ()) ~terminals:[ 0 ] ~ci_width:0.1 );
    ( "pro karate w = 64, one round",
      pro ~width:64 (karate ()) ~terminals:[ 0; 33 ] ~ci_width:0.02 );
    ( "pro karate w = 64, bounds within the target",
      pro ~width:64 (karate ()) ~terminals:[ 0; 33 ] ~ci_width:0.9 );
    ( "pro karate w = 8, two rounds",
      pro ~width:8 (karate ()) ~terminals:[ 0; 33 ] ~ci_width:0.001 );
    ( "pro karate w = 8, capped",
      pro ~width:8 ~max_samples:3000 (karate ()) ~terminals:[ 0; 33 ]
        ~ci_width:0.001 );
    ( "pro two sampled subproblems",
      pro ~width:2 (two_k5 ()) ~terminals:[ 0; 9 ] ~ci_width:0.02 );
    ( "pro exact construction",
      pro ~width:10_000 (fig1 ()) ~terminals:fig ~ci_width:0.05 );
  ]

let known_expected =
  [
    ( "mc flat, multi-round",
      {|value 3fe7ba71975f1612
lower 3fe79152fce76ae6
upper 3fe7e30cb4a07ca8
exact false
ci_width 3f846e6dee447080
target_width 3f847ae147ae147b
samples_used 29591
samples_planned 29591
rounds 3
stop width-reached
adaptive.round
  round 1
  planned 4096
  samples 4096
  width 3f9ba06db9de8000
adaptive.round
  round 2
  planned 16384
  samples 20480
  width 3f889d47c6639c00
adaptive.round
  round 3
  planned 9111
  samples 29591
  width 3f846e6dee447080
adaptive.done
  value 3fe7ba71975f1612
  lower 3fe79152fce76ae6
  upper 3fe7e30cb4a07ca8
  width 3f846e6dee447080
  rounds 3
  samples 29591
  stop width-reached|} );
    ( "mc bitsliced",
      {|value 3fe79cfd88ab5ead
lower 3fe77653b4ca0468
upper 3fe7c335bf1870fc
exact false
ci_width 3f833882939b2500
target_width 3f847ae147ae147b
samples_used 33737
samples_planned 33737
rounds 4
stop width-reached
adaptive.round
  round 1
  planned 4096
  samples 4096
  width 3f9b7e7b44e7c8c0
adaptive.round
  round 2
  planned 16384
  samples 20480
  width 3f88a2a1ab8e2300
adaptive.round
  round 3
  planned 9161
  samples 29641
  width 3f847e83e8bb4900
adaptive.round
  round 4
  planned 4096
  samples 33737
  width 3f833882939b2500
adaptive.done
  value 3fe79cfd88ab5ead
  lower 3fe77653b4ca0468
  upper 3fe7c335bf1870fc
  width 3f833882939b2500
  rounds 4
  samples 33737
  stop width-reached|} );
    ( "ht flat",
      {|value 3fe7a60913a4f870
lower 3fe77cd38104eba3
upper 3fe7cebcbc78d29d
exact false
ci_width 3f847a4edcf9be80
target_width 3f847ae147ae147b
samples_used 29641
samples_planned 29641
rounds 3
stop width-reached
adaptive.round
  round 1
  planned 4096
  samples 4096
  width 3f9b89212eae6600
adaptive.round
  round 2
  planned 16384
  samples 20480
  width 3f88a29903407700
adaptive.round
  round 3
  planned 9161
  samples 29641
  width 3f847a4edcf9be80
adaptive.done
  value 3fe7a60913a4f870
  lower 3fe77cd38104eba3
  upper 3fe7cebcbc78d29d
  width 3f847a4edcf9be80
  rounds 3
  samples 29641
  stop width-reached|} );
    ( "ht bitsliced",
      {|value 3fe7a60913a4f870
lower 3fe77cd38104eba3
upper 3fe7cebcbc78d29d
exact false
ci_width 3f847a4edcf9be80
target_width 3f847ae147ae147b
samples_used 29641
samples_planned 29641
rounds 3
stop width-reached
adaptive.round
  round 1
  planned 4096
  samples 4096
  width 3f9b89212eae6600
adaptive.round
  round 2
  planned 16384
  samples 20480
  width 3f88a29903407700
adaptive.round
  round 3
  planned 9161
  samples 29641
  width 3f847a4edcf9be80
adaptive.done
  value 3fe7a60913a4f870
  lower 3fe77cd38104eba3
  upper 3fe7cebcbc78d29d
  width 3f847a4edcf9be80
  rounds 3
  samples 29641
  stop width-reached|} );
    ( "mc max_samples stop",
      {|value 3fe7cfaacd9e83e4
lower 3fe788d82068c11e
upper 3fe814f451035db0
exact false
ci_width 3f91838613539240
target_width 3f1a36e2eb1c432d
samples_used 10000
samples_planned 10000
rounds 2
stop max-samples
adaptive.round
  round 1
  planned 4096
  samples 4096
  width 3f9b84e6c9b34b40
adaptive.round
  round 2
  planned 5904
  samples 10000
  width 3f91838613539240
adaptive.done
  value 3fe7cfaacd9e83e4
  lower 3fe788d82068c11e
  upper 3fe814f451035db0
  width 3f91838613539240
  rounds 2
  samples 10000
  stop max-samples|} );
    ( "mc k = 1",
      {|value 3ff0000000000000
lower 3ff0000000000000
upper 3ff0000000000000
exact true
ci_width 0
target_width 3fb999999999999a
samples_used 0
samples_planned 0
rounds 0
stop exact
adaptive.done
  value 3ff0000000000000
  lower 3ff0000000000000
  upper 3ff0000000000000
  width 0
  rounds 0
  samples 0
  stop exact|} );
    ( "pro karate w = 64, one round",
      {|value 3feffeb7854afc49
lower 3feff7521ab918d0
upper 3fefffcf7be528dc
exact false
ci_width 3f50fac258201800
target_width 3f947ae147ae147b
samples_used 4096
samples_planned 4096
rounds 1
stop width-reached
adaptive.round
  sub 0
  round 1
  planned 4096
  strata 1248
  width 3f50fac258201800
adaptive.done
  value 3feffeb7854afc49
  lower 3feff7521ab918d0
  upper 3fefffcf7be528dc
  width 3f50fac258201800
  rounds 1
  samples 4096
  stop width-reached|} );
    ( "pro karate w = 64, bounds within the target",
      {|value 3fc6dcd764736730
lower 3fc6dcd764736730
upper 3ff0000000000000
exact false
ci_width 3fea48ca26e32634
target_width 3feccccccccccccd
samples_used 0
samples_planned 0
rounds 0
stop width-reached
adaptive.done
  value 3fc6dcd764736730
  lower 3fc6dcd764736730
  upper 3ff0000000000000
  width 3fea48ca26e32634
  rounds 0
  samples 0
  stop width-reached|} );
    ( "pro karate w = 8, two rounds",
      {|value 3feff7eac66e55d9
lower 3feff334ecdb9ce4
upper 3feffae4edf0e000
exact false
ci_width 3f4ec004550c7000
target_width 3f50624dd2f1a9fc
samples_used 17535
samples_planned 17535
rounds 2
stop width-reached
adaptive.round
  sub 0
  round 1
  planned 4096
  strata 189
  width 3f5ecbf603555400
adaptive.round
  sub 0
  round 2
  planned 13439
  strata 144
  width 3f4ec004550c7000
adaptive.done
  value 3feff7eac66e55d9
  lower 3feff334ecdb9ce4
  upper 3feffae4edf0e000
  width 3f4ec004550c7000
  rounds 2
  samples 17535
  stop width-reached|} );
    ( "pro karate w = 8, capped",
      {|value 3feffa4f872822a1
lower 3fefec1f28df122a
upper 3feffe5fad7ba931
exact false
ci_width 3f6240849c970700
target_width 3f50624dd2f1a9fc
samples_used 3000
samples_planned 3000
rounds 1
stop max-samples
adaptive.round
  sub 0
  round 1
  planned 3000
  strata 189
  width 3f6240849c970700
adaptive.done
  value 3feffa4f872822a1
  lower 3fefec1f28df122a
  upper 3feffe5fad7ba931
  width 3f6240849c970700
  rounds 1
  samples 3000
  stop max-samples|} );
    ( "pro two sampled subproblems",
      {|value 3fe4c90eea3086f9
lower 3fe48338e5e1bb1a
upper 3fe50d2a156816eb
exact false
ci_width 3f913e25f0cb7a20
target_width 3f947ae147ae147b
samples_used 22871
samples_planned 22871
rounds 4
stop width-reached
adaptive.round
  sub 0
  round 1
  planned 4096
  strata 7
  width 3f93179719228180
adaptive.round
  sub 0
  round 2
  planned 7456
  strata 7
  width 3f8688fe4a5475c0
adaptive.round
  sub 1
  round 1
  planned 4096
  strata 7
  width 3f92e5b854f743c0
adaptive.round
  sub 1
  round 2
  planned 7223
  strata 7
  width 3f8692b87bb858c0
adaptive.done
  value 3fe4c90eea3086f9
  lower 3fe48338e5e1bb1a
  upper 3fe50d2a156816eb
  width 3f913e25f0cb7a20
  rounds 4
  samples 22871
  stop width-reached|} );
    ( "pro exact construction",
      {|value 3fe7a60913a4f873
lower 3fe7a60913a4f873
upper 3fe7a60913a4f873
exact true
ci_width 0
target_width 3fa999999999999a
samples_used 0
samples_planned 0
rounds 0
stop exact
adaptive.done
  value 3fe7a60913a4f873
  lower 3fe7a60913a4f873
  upper 3fe7a60913a4f873
  width 0
  rounds 0
  samples 0
  stop exact|} );
  ]

let t_known_answers () =
  List.iter
    (fun (name, f) ->
      Alcotest.(check (list string))
        name
        (String.split_on_char '\n' (List.assoc name known_expected))
        (known_run f))
    known_cases

let suite =
  ( "adaptive",
    [
      Alcotest.test_case "mc: bit-identical across jobs" `Quick
        t_mc_jobs_bit_identical;
      Alcotest.test_case "ht: bit-identical across jobs" `Quick
        t_ht_jobs_bit_identical;
      Alcotest.test_case "mc: stops at the width target" `Quick t_width_reached;
      Alcotest.test_case "mc: stops at the sample cap" `Quick t_max_samples_cap;
      Alcotest.test_case "0-hit interval regression" `Quick t_zero_hit_interval;
      Alcotest.test_case "plan: split draws equal one draw" `Quick
        t_plan_split_draws;
      Alcotest.test_case "pro: bit-identical across jobs" `Quick
        t_reliability_jobs_bit_identical;
      Alcotest.test_case "validation" `Quick t_validation;
      Alcotest.test_case "known answers and round events" `Quick
        t_known_answers;
    ] )
