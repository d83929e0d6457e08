open Testutil
module BF = Bddbase.Bruteforce
module S = Netrel.S2bdd
module SS = Netrel.Samplesize
module R = Netrel.Reliability

(* ---- Theorem 1 sample-size formula ---- *)

let t_samplesize_cases () =
  let s = 10_000 in
  Alcotest.(check int) "no bounds: s unchanged" s (SS.reduced ~s ~pc:0. ~pd:0.);
  Alcotest.(check int) "pc=0" (int_of_float (10_000. *. 0.7)) (SS.reduced ~s ~pc:0. ~pd:0.3);
  Alcotest.(check int) "pd=0" (int_of_float (10_000. *. 0.8)) (SS.reduced ~s ~pc:0.2 ~pd:0.);
  (* pc = pd = 0.1: floor(s * (1 - 4*0.1*0.9)) — 0.64 up to float
     rounding, so 6400 or 6399. *)
  let fl x = int_of_float (Float.floor (10_000. *. x)) in
  Alcotest.(check int) "pc=pd" (fl (1. -. (4. *. 0.1 *. 0.9))) (SS.reduced ~s ~pc:0.1 ~pd:0.1);
  (* pc < pd: 1 - 4*0.1*(1-0.3) = 0.72 *)
  Alcotest.(check int) "pc<pd" (fl (1. -. (4. *. 0.1 *. 0.7))) (SS.reduced ~s ~pc:0.1 ~pd:0.3);
  (* pc > pd: min(4*0.3*0.7, 4*(0.3*0.9 + (0.1-0.3))) = min(0.84, 0.28) *)
  Alcotest.(check int) "pc>pd"
    (fl (1. -. (4. *. ((0.3 *. 0.9) +. (0.1 -. 0.3)))))
    (SS.reduced ~s ~pc:0.3 ~pd:0.1);
  (* Exact bounds: no samples needed at all. *)
  Alcotest.(check int) "tight bounds" 0 (SS.reduced ~s ~pc:0.5 ~pd:0.5)

let t_samplesize_invalid () =
  Alcotest.check_raises "pc+pd > 1"
    (Invalid_argument "Samplesize: invalid bounds pc=0.8 pd=0.8") (fun () ->
      ignore (SS.reduced ~s:100 ~pc:0.8 ~pd:0.8))

let prop_samplesize_never_exceeds_s =
  QCheck.Test.make ~name:"s' in [0, s] for all valid bounds" ~count:1000
    QCheck.(triple (int_range 0 100000) (float_bound_inclusive 1.) (float_bound_inclusive 1.))
    (fun (s, pc, pd) ->
      QCheck.assume (pc +. pd <= 1.);
      let s' = SS.reduced ~s ~pc ~pd in
      0 <= s' && s' <= s)

let prop_samplesize_monotone_in_pd_when_pc0 =
  QCheck.Test.make ~name:"s' decreases as pd tightens (pc = 0)" ~count:300
    QCheck.(pair (float_bound_inclusive 1.) (float_bound_inclusive 1.))
    (fun (a, b) ->
      let pd1 = Float.min a b and pd2 = Float.max a b in
      SS.reduced ~s:10_000 ~pc:0. ~pd:pd2 <= SS.reduced ~s:10_000 ~pc:0. ~pd:pd1)

(* ---- S2BDD exactness (large width) ---- *)

let wide cfg = { cfg with S.width = 1 lsl 16 }

let t_s2bdd_exact_small () =
  List.iter
    (fun (name, g, ts) ->
      let expect = BF.reliability g ~terminals:ts in
      let r = S.estimate ~config:(wide S.default_config) g ~terminals:ts in
      Alcotest.(check bool) (name ^ " exact flag") true r.S.exact;
      check_close ~eps:1e-9 (name ^ " value") expect r.S.value;
      check_close ~eps:1e-9 (name ^ " lower=value") expect r.S.lower;
      check_close ~eps:1e-9 (name ^ " upper=value") expect r.S.upper)
    [
      ("fig1 k=3", fig1 (), [ 0; 3; 4 ]);
      ("fig1 k=2", fig1 (), [ 0; 4 ]);
      ("two triangles", two_triangles 0.6, [ 0; 4 ]);
      ("cycle", cycle4 0.5, [ 0; 2 ]);
      ("path", path4 0.7, [ 0; 3 ]);
    ]

let t_s2bdd_modes_exact () =
  let g = fig1 () in
  let ts = [ 0; 3; 4 ] in
  let expect = BF.reliability g ~terminals:ts in
  List.iter
    (fun (name, cfg) ->
      let r = S.estimate ~config:(wide cfg) g ~terminals:ts in
      check_close ~eps:1e-9 name expect r.S.value)
    [
      ("eager off", { S.default_config with S.eager = false });
      ("exact-count merge", { S.default_config with S.merge_flags = false });
      ("HT estimator", { S.default_config with S.estimator = S.Horvitz_thompson });
      ("natural order", { S.default_config with S.order = `Strategy Graphalgo.Ordering.Natural });
    ]

let t_s2bdd_trivial () =
  let g = path4 0.5 in
  let r = S.estimate g ~terminals:[ 1 ] in
  Alcotest.(check bool) "k=1 exact" true r.S.exact;
  check_close "k=1 value" 1. r.S.value;
  let disconnected = graph ~n:4 [ (0, 1, 0.9); (2, 3, 0.9) ] in
  check_close "separated" 0. (S.estimate disconnected ~terminals:[ 0; 3 ]).S.value

let t_s2bdd_flag_merge_smaller () =
  (* Lemma 4.3 merging must never give wider layers than exact-count
     merging. *)
  let g = two_triangles 0.5 in
  let ts = [ 0; 4 ] in
  let run merge_flags =
    (S.estimate ~config:(wide { S.default_config with S.merge_flags }) g ~terminals:ts)
      .S.max_width
  in
  Alcotest.(check bool) "flags <= exact" true (run true <= run false)

(* ---- S2BDD under deletion pressure: bounds and unbiasedness ---- *)

let t_s2bdd_bounds_contain_truth () =
  List.iter
    (fun (name, g, ts) ->
      let expect = BF.reliability g ~terminals:ts in
      List.iter
        (fun width ->
          let cfg = { S.default_config with S.width; S.samples = 50 } in
          let r = S.estimate ~config:cfg g ~terminals:ts in
          Alcotest.(check bool)
            (Printf.sprintf "%s w=%d: %.4f <= %.4f <= %.4f" name width r.S.lower
               expect r.S.upper)
            true
            (r.S.lower <= expect +. 1e-9 && expect <= r.S.upper +. 1e-9))
        [ 1; 2; 4 ])
    [
      ("fig1", fig1 (), [ 0; 3; 4 ]);
      ("two triangles", two_triangles 0.6, [ 0; 4 ]);
      ("grid-ish", graph ~n:6
         [ (0, 1, 0.6); (1, 2, 0.6); (3, 4, 0.6); (4, 5, 0.6);
           (0, 3, 0.6); (1, 4, 0.6); (2, 5, 0.6) ], [ 0; 5 ]);
    ]

let mean_std values =
  let n = float_of_int (Array.length values) in
  let mean = Array.fold_left ( +. ) 0. values /. n in
  let var =
    Array.fold_left (fun acc v -> acc +. ((v -. mean) ** 2.)) 0. values /. n
  in
  (mean, sqrt var)

let statistical_unbiasedness name cfg g ts =
  let expect = BF.reliability g ~terminals:ts in
  let trials = 300 in
  let values =
    Array.init trials (fun i ->
        (S.estimate ~config:{ cfg with S.seed = 1000 + i } g ~terminals:ts).S.value)
  in
  let mean, std = mean_std values in
  let tol = 5. *. ((std /. sqrt (float_of_int trials)) +. 1e-4) in
  Alcotest.(check bool)
    (Printf.sprintf "%s: mean %.4f within %.4f of %.4f (std %.4f)" name mean tol
       expect std)
    true
    (Float.abs (mean -. expect) <= tol)

let t_s2bdd_unbiased_mc () =
  let cfg = { S.default_config with S.width = 2; S.samples = 100 } in
  statistical_unbiasedness "MC w=2" cfg (fig1 ()) [ 0; 3; 4 ]

let t_s2bdd_unbiased_mc_width1 () =
  let cfg = { S.default_config with S.width = 1; S.samples = 100 } in
  statistical_unbiasedness "MC w=1" cfg (two_triangles 0.6) [ 0; 4 ]

let t_s2bdd_unbiased_ht () =
  let cfg =
    { S.default_config with S.width = 2; S.samples = 100;
      S.estimator = S.Horvitz_thompson }
  in
  statistical_unbiasedness "HT w=2" cfg (fig1 ()) [ 0; 3; 4 ]

let t_s2bdd_unbiased_random_heuristic () =
  let cfg =
    { S.default_config with S.width = 2; S.samples = 100;
      S.heuristic = S.Random_deletion }
  in
  statistical_unbiasedness "random deletion w=2" cfg (fig1 ()) [ 0; 3; 4 ]

let t_s2bdd_deterministic_by_seed () =
  let cfg = { S.default_config with S.width = 2; S.samples = 100 } in
  let g = fig1 () in
  let a = S.estimate ~config:cfg g ~terminals:[ 0; 3; 4 ] in
  let b = S.estimate ~config:cfg g ~terminals:[ 0; 3; 4 ] in
  check_close "same seed, same value" a.S.value b.S.value;
  Alcotest.(check int) "same samples" a.S.samples_drawn b.S.samples_drawn

let prop_s2bdd_bounds_valid =
  QCheck.Test.make ~name:"s2bdd bounds always contain brute force R" ~count:150
    (Test_bddbase.arb_graph_ts ~max_n:7 ~max_m:10 ~max_k:3)
    (fun (n, es, ts) ->
      let g = graph ~n es in
      let expect = BF.reliability g ~terminals:ts in
      let cfg = { S.default_config with S.width = 2; S.samples = 20 } in
      let r = S.estimate ~config:cfg g ~terminals:ts in
      r.S.lower <= expect +. 1e-9 && expect <= r.S.upper +. 1e-9)

let prop_s2bdd_exact_with_huge_width =
  QCheck.Test.make ~name:"s2bdd exact when width suffices" ~count:150
    (Test_bddbase.arb_graph_ts ~max_n:7 ~max_m:10 ~max_k:3)
    (fun (n, es, ts) ->
      let g = graph ~n es in
      let expect = BF.reliability g ~terminals:ts in
      let r = S.estimate ~config:(wide S.default_config) g ~terminals:ts in
      r.S.exact && Float.abs (r.S.value -. expect) <= 1e-9)

(* ---- result clamping and bound ordering regressions ---- *)

(* Regression: the raw stratified contribution can overshoot the proven
   upper bound under sampling noise (this seed is one such draw —
   raw ~ 0.7331 against upper 0.7248). The result must come back
   clamped into [lower, upper], with the excursion recorded in Obs
   rather than silently discarded. Pre-clamp code returned the raw
   value here. *)
let t_s2bdd_value_clamped_regression () =
  (* Bowtie: two triangles sharing vertex 2 — no bridge, so the raw
     graph hits the width cap with both terminals still separated. *)
  let g =
    graph ~n:5
      [ (0, 1, 0.6); (1, 2, 0.6); (2, 0, 0.6); (2, 3, 0.6); (3, 4, 0.6);
        (4, 2, 0.6) ]
  in
  let obs = Obs.create () in
  let cfg = { S.default_config with S.width = 2; S.samples = 20; S.seed = 26 } in
  let r = S.estimate ~obs ~config:cfg g ~terminals:[ 0; 4 ] in
  Alcotest.(check bool) "clamp event counted" true
    (Obs.counter_value obs "sampling.value_clamped" >= 1);
  let raw = Obs.gauge_value obs "sampling.raw_value" in
  Alcotest.(check bool)
    (Printf.sprintf "raw %.6f escapes [%.6f, %.6f]" raw r.S.lower r.S.upper)
    true
    (raw > r.S.upper);
  Alcotest.(check bool)
    (Printf.sprintf "value %.6f clamped into bounds" r.S.value)
    true
    (r.S.lower <= r.S.value && r.S.value <= r.S.upper);
  check_close "clamped to the violated bound" r.S.upper r.S.value

(* Regression: [lower] and [upper] are rounded independently from [pc]
   and [1 - pd], so on a fully resolved run they used to cross by an
   ulp (upper a hair below lower), putting value = lower above upper.
   This mix of near-one and near-zero probabilities reproduced it. *)
let t_s2bdd_bounds_ordered_when_exact () =
  let g =
    graph ~n:5
      [ (0, 1, 0.98875268947494399); (0, 2, 0.99109709523495815);
        (0, 3, 0.55054632160215988); (0, 4, 0.011082610370499964) ]
  in
  let r = S.estimate ~config:(wide S.default_config) g ~terminals:[ 1; 3; 4 ] in
  Alcotest.(check bool) "exact" true r.S.exact;
  Alcotest.(check bool)
    (Printf.sprintf "bounds ordered: %.17g <= %.17g" r.S.lower r.S.upper)
    true (r.S.lower <= r.S.upper);
  Alcotest.(check bool) "value within bounds" true
    (r.S.lower <= r.S.value && r.S.value <= r.S.upper)

(* ---- HT plug-in variance, Equation (8), against closed form ----

   On the 2-edge series graph 0-1-2 only the full mask connects the
   terminals, so the estimator collapses to a closed form: with
   q = p1 * p2 and pi = 1 - (1 - q)^s,

     value = q / pi        (if the full mask was drawn, else 0)
     var   = value (1 - value) / s  -  (s - 1) q^2 / (2 s)

   which pins every term of the implementation. *)
let ht_series_closed_form ~p ~s =
  let q = p *. p in
  let pi = 1. -. ((1. -. q) ** float_of_int s) in
  let value = q /. pi in
  let var =
    (value *. (1. -. value) /. float_of_int s)
    -. ((float_of_int s -. 1.) *. q *. q /. (2. *. float_of_int s))
  in
  (value, var)

let ht_series ~p ~seed ~samples =
  let g = graph ~n:3 [ (0, 1, p); (1, 2, p) ] in
  let obs = Obs.create () in
  let e = Mcsampling.horvitz_thompson ~obs ~seed g ~terminals:[ 0; 2 ] ~samples in
  (e, obs)

let t_ht_variance_closed_form () =
  (* p = 0.1, seed 1 draws the full mask: the plug-in is positive and
     must equal the closed form exactly. *)
  let e, obs = ht_series ~p:0.1 ~seed:1 ~samples:100 in
  let value, var = ht_series_closed_form ~p:0.1 ~s:100 in
  Alcotest.(check int) "full mask drawn once" 1 e.Mcsampling.hits;
  check_close ~eps:1e-15 "HT value = q/pi" value e.Mcsampling.value;
  Alcotest.(check bool) "closed-form variance positive" true (var > 0.);
  check_close ~eps:1e-15 "Eq.(8) = closed form" var e.Mcsampling.variance_estimate;
  Alcotest.(check int) "no clamp event" 0
    (Obs.counter_value obs "sampling.variance_clamped")

(* Regression: at p = 0.99 the Eq.(8) correction term dwarfs the first
   term and the plug-in goes negative (~ -0.475); it must come back
   clamped to 0 with the event counted and the raw value preserved in
   Obs. Pre-PR code clamped silently. *)
let t_ht_variance_clamped_regression () =
  let e, obs = ht_series ~p:0.99 ~seed:1 ~samples:100 in
  let _, raw_var = ht_series_closed_form ~p:0.99 ~s:100 in
  Alcotest.(check bool) "closed-form variance negative" true (raw_var < 0.);
  check_close "variance clamped to zero" 0. e.Mcsampling.variance_estimate;
  Alcotest.(check int) "clamp event counted" 1
    (Obs.counter_value obs "sampling.variance_clamped");
  check_close ~eps:1e-15 "raw variance preserved in Obs" raw_var
    (Obs.gauge_value obs "sampling.raw_variance")

(* ---- s_reduced reporting convention ---- *)

(* [report.s_reduced = 0] means "no sampling was needed", uniformly:
   trivially resolved runs, exact-by-construction runs (with and
   without the extension) and combined subproblem reports all follow
   it, even though the unused Theorem-1 budget of an exact run stays
   visible in [subresults]. Pre-PR, exact construction reported the
   unused s' while trivial runs reported 0. *)
let t_report_s_reduced_convention () =
  let g = two_triangles 0.6 in
  let ts = [ 0; 4 ] in
  let exact_ext = R.estimate ~config:(wide S.default_config) g ~terminals:ts in
  Alcotest.(check bool) "exact run" true exact_ext.R.exact;
  Alcotest.(check int) "exact (ext): s_reduced = 0" 0 exact_ext.R.s_reduced;
  let exact_raw =
    R.estimate ~config:(wide S.default_config) ~extension:false g ~terminals:ts
  in
  Alcotest.(check int) "exact (no ext): s_reduced = 0" 0 exact_raw.R.s_reduced;
  Alcotest.(check bool) "subresults keep the unused s'" true
    (List.for_all (fun (r : S.result) -> r.S.s_reduced > 0) exact_raw.R.subresults);
  let trivial = R.estimate g ~terminals:[ 0 ] in
  Alcotest.(check int) "trivial: s_reduced = 0" 0 trivial.R.s_reduced;
  let sampled =
    R.estimate
      ~config:{ S.default_config with S.width = 2; S.samples = 50 }
      ~extension:false g ~terminals:ts
  in
  Alcotest.(check bool) "sampled run" true (not sampled.R.exact);
  Alcotest.(check bool) "sampled: s_reduced > 0" true (sampled.R.s_reduced > 0)

(* ---- Reliability pipeline (Algorithm 1) ---- *)

let t_reliability_exact_small () =
  List.iter
    (fun (name, g, ts) ->
      let expect = BF.reliability g ~terminals:ts in
      let rep = R.estimate ~config:(wide S.default_config) g ~terminals:ts in
      Alcotest.(check bool) (name ^ " exact") true rep.R.exact;
      check_close ~eps:1e-9 name expect rep.R.value)
    [
      ("fig1", fig1 (), [ 0; 3; 4 ]);
      ("two triangles", two_triangles 0.6, [ 0; 4 ]);
      ("barbell", graph ~n:8
         [ (0, 1, 0.5); (1, 2, 0.5); (2, 0, 0.5); (2, 3, 0.9); (3, 4, 0.8);
           (4, 5, 0.5); (5, 6, 0.5); (6, 4, 0.5); (5, 7, 0.4) ], [ 0; 6 ]);
    ]

let t_reliability_extension_equivalent () =
  let g = two_triangles 0.6 in
  let ts = [ 0; 4 ] in
  let with_ext = R.estimate ~config:(wide S.default_config) g ~terminals:ts in
  let without = R.estimate ~config:(wide S.default_config) ~extension:false g ~terminals:ts in
  check_close ~eps:1e-9 "extension preserves exact value" without.R.value with_ext.R.value

let t_reliability_trivial () =
  let g = path4 0.5 in
  check_close "k=1" 1. (R.estimate g ~terminals:[ 0 ]).R.value;
  let disconnected = graph ~n:4 [ (0, 1, 0.9); (2, 3, 0.9) ] in
  let rep = R.estimate disconnected ~terminals:[ 0; 3 ] in
  check_close "separated" 0. rep.R.value;
  Alcotest.(check bool) "separated exact" true rep.R.exact

let t_reliability_exact_fn () =
  let g = two_triangles 0.6 in
  let ts = [ 0; 4 ] in
  let expect = BF.reliability g ~terminals:ts in
  (match R.exact g ~terminals:ts with
  | Ok r -> check_close ~eps:1e-9 "exact with ext" expect r
  | Error _ -> Alcotest.fail "DNF");
  match R.exact ~extension:false g ~terminals:ts with
  | Ok r -> check_close ~eps:1e-9 "exact without ext" expect r
  | Error _ -> Alcotest.fail "DNF"

let t_reliability_value_within_bounds () =
  let g = fig1 () in
  let cfg = { S.default_config with S.width = 2; S.samples = 50 } in
  for seed = 0 to 49 do
    let rep = R.estimate ~config:{ cfg with S.seed } g ~terminals:[ 0; 3; 4 ] in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: value %.4f in [%.4f, %.4f]" seed rep.R.value
         rep.R.lower rep.R.upper)
      true
      (rep.R.lower -. 1e-12 <= rep.R.value && rep.R.value <= rep.R.upper +. 1e-12)
  done

let prop_reliability_matches_bruteforce_exact =
  QCheck.Test.make ~name:"pipeline exact (wide) = brute force" ~count:150
    (Test_bddbase.arb_graph_ts ~max_n:8 ~max_m:12 ~max_k:4)
    (fun (n, es, ts) ->
      let g = graph ~n es in
      let expect = BF.reliability g ~terminals:ts in
      let rep = R.estimate ~config:(wide S.default_config) g ~terminals:ts in
      rep.R.exact && Float.abs (rep.R.value -. expect) <= 1e-9)

let prop_reliability_bounds_valid_under_pressure =
  QCheck.Test.make ~name:"pipeline bounds contain R under deletion" ~count:100
    (Test_bddbase.arb_graph_ts ~max_n:8 ~max_m:12 ~max_k:3)
    (fun (n, es, ts) ->
      let g = graph ~n es in
      let expect = BF.reliability g ~terminals:ts in
      let cfg = { S.default_config with S.width = 2; S.samples = 20 } in
      let rep = R.estimate ~config:cfg g ~terminals:ts in
      rep.R.lower <= expect +. 1e-9 && expect <= rep.R.upper +. 1e-9)

(* The three pro drivers build the same S2BDDs: [Bounds.compute] proves
   exactly the bounds of the fixed-budget estimate at the same width,
   and the adaptive plan of every [Reliability.split] subproblem has
   the bounds of the matching fixed subresult. Compared as float
   bits. *)
let prop_drivers_share_construction =
  QCheck.Test.make ~name:"bounds/prepare = fixed pro's construction bounds"
    ~count:100
    (Test_bddbase.arb_graph_ts ~max_n:8 ~max_m:12 ~max_k:4)
    (fun (n, es, ts) ->
      let g = graph ~n es in
      let bits (lo, hi) = (Int64.bits_of_float lo, Int64.bits_of_float hi) in
      List.for_all
        (fun (width, extension) ->
          let config = { S.default_config with S.width } in
          let rep = R.estimate ~config ~extension g ~terminals:ts in
          let b = Netrel.Bounds.compute ~width ~extension g ~terminals:ts in
          let planned =
            match R.split ~config ~extension g ~terminals:ts with
            | R.Resolved _ -> []
            | R.Split { subproblems; _ } ->
              Array.to_list subproblems
              |> List.map (fun (sp : R.subproblem) ->
                     match
                       S.prepare ~config:sp.R.config sp.R.graph
                         ~terminals:sp.R.terminals
                     with
                     | S.Exact r -> (r.S.lower, r.S.upper)
                     | S.Sampling plan -> S.plan_bounds plan)
          in
          bits (b.Netrel.Bounds.lower, b.Netrel.Bounds.upper)
          = bits (rep.R.lower, rep.R.upper)
          && List.map bits planned
             = List.map (fun (r : S.result) -> bits (r.S.lower, r.S.upper))
                 rep.R.subresults)
        (List.concat_map
           (fun w -> [ (w, true); (w, false) ])
           [ 1; 2; 4; 16 ]))

(* ---- baseline samplers ---- *)

let t_mc_sampler_statistics () =
  let g = fig1 () in
  let ts = [ 0; 3; 4 ] in
  let expect = BF.reliability g ~terminals:ts in
  let est = Mcsampling.monte_carlo ~seed:7 g ~terminals:ts ~samples:40_000 in
  let sigma = sqrt (expect *. (1. -. expect) /. 40_000.) in
  Alcotest.(check bool)
    (Printf.sprintf "MC %.4f ~ %.4f" est.Mcsampling.value expect)
    true
    (Float.abs (est.Mcsampling.value -. expect) <= 5. *. sigma);
  Alcotest.(check int) "samples used" 40_000 est.Mcsampling.samples_used

let t_ht_sampler_statistics () =
  let g = fig1 () in
  let ts = [ 0; 3; 4 ] in
  let expect = BF.reliability g ~terminals:ts in
  let trials = 100 in
  let values =
    Array.init trials (fun i ->
        (Mcsampling.horvitz_thompson ~seed:(100 + i) g ~terminals:ts ~samples:500)
          .Mcsampling.value)
  in
  let mean, std = mean_std values in
  Alcotest.(check bool)
    (Printf.sprintf "HT mean %.4f ~ %.4f (std %.4f)" mean expect std)
    true
    (Float.abs (mean -. expect) <= (5. *. std /. sqrt (float_of_int trials)) +. 0.02)

let t_samplers_trivial () =
  let g = path4 0.5 in
  check_close "MC k=1" 1. (Mcsampling.monte_carlo g ~terminals:[ 0 ] ~samples:10).Mcsampling.value;
  Alcotest.check_raises "samples<=0" (Invalid_argument "Mcsampling: samples <= 0")
    (fun () -> ignore (Mcsampling.monte_carlo g ~terminals:[ 0; 1 ] ~samples:0))

let suite =
  ( "core",
    [
      Alcotest.test_case "samplesize: Theorem 1 cases" `Quick t_samplesize_cases;
      Alcotest.test_case "samplesize: invalid input" `Quick t_samplesize_invalid;
      Alcotest.test_case "s2bdd exact on small graphs" `Quick t_s2bdd_exact_small;
      Alcotest.test_case "s2bdd exact in all modes" `Quick t_s2bdd_modes_exact;
      Alcotest.test_case "s2bdd trivial cases" `Quick t_s2bdd_trivial;
      Alcotest.test_case "flag merge never wider" `Quick t_s2bdd_flag_merge_smaller;
      Alcotest.test_case "bounds contain truth under deletion" `Quick t_s2bdd_bounds_contain_truth;
      Alcotest.test_case "unbiased: MC w=2" `Slow t_s2bdd_unbiased_mc;
      Alcotest.test_case "unbiased: MC w=1" `Slow t_s2bdd_unbiased_mc_width1;
      Alcotest.test_case "unbiased: HT w=2" `Slow t_s2bdd_unbiased_ht;
      Alcotest.test_case "unbiased: random deletion" `Slow t_s2bdd_unbiased_random_heuristic;
      Alcotest.test_case "deterministic by seed" `Quick t_s2bdd_deterministic_by_seed;
      Alcotest.test_case "value clamped into bounds (regression)" `Quick t_s2bdd_value_clamped_regression;
      Alcotest.test_case "bounds ordered on exact runs (regression)" `Quick t_s2bdd_bounds_ordered_when_exact;
      Alcotest.test_case "HT Eq.(8) variance = closed form" `Quick t_ht_variance_closed_form;
      Alcotest.test_case "HT variance clamp counted (regression)" `Quick t_ht_variance_clamped_regression;
      Alcotest.test_case "s_reduced = 0 means no sampling" `Quick t_report_s_reduced_convention;
      Alcotest.test_case "pipeline exact on small graphs" `Quick t_reliability_exact_small;
      Alcotest.test_case "pipeline: extension equivalence" `Quick t_reliability_extension_equivalent;
      Alcotest.test_case "pipeline: trivial cases" `Quick t_reliability_trivial;
      Alcotest.test_case "pipeline: exact function" `Quick t_reliability_exact_fn;
      Alcotest.test_case "pipeline: value within bounds" `Quick t_reliability_value_within_bounds;
      Alcotest.test_case "baseline MC statistics" `Slow t_mc_sampler_statistics;
      Alcotest.test_case "baseline HT statistics" `Slow t_ht_sampler_statistics;
      Alcotest.test_case "baseline samplers trivial" `Quick t_samplers_trivial;
    ]
    @ qtests
        [
          prop_samplesize_never_exceeds_s;
          prop_samplesize_monotone_in_pd_when_pc0;
          prop_s2bdd_bounds_valid;
          prop_s2bdd_exact_with_huge_width;
          prop_reliability_matches_bruteforce_exact;
          prop_reliability_bounds_valid_under_pressure;
          prop_drivers_share_construction;
        ] )
