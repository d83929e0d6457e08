module Shapes = Shapes
module Reference = Reference
module J = Obs.Json
module S2bdd = Netrel.S2bdd
module Reliability = Netrel.Reliability
module Statsdoc = Netrel.Statsdoc

type violation = {
  section : string;
  invariant : string;
  case : string;
  detail : string;
  artifact : string;
}

type section = {
  s_name : string;
  s_cases : int;
  s_checks : int;
  s_violations : int;
  s_skipped : int;
}

type report = {
  seed : int;
  trials : int;
  jobs : int list;
  sections : section list;
  violations : violation list;
  cases : int;
  checks : int;
}

let ok r = List.for_all (fun s -> s.s_violations = 0) r.sections
let default_jobs = [ 1; 2; 8 ]
let max_reported_violations = 25

(* Numeric contracts. [eps_exact] is the honesty tolerance for claims of
   exactness (and for identities both sides of which are computed by the
   exact BDD: the only slack is Xprob accumulation order). The accuracy
   tolerances are deliberately loose — they exist to catch gross
   estimator defects (wrong normalisation, sign errors, broken
   reductions), not to retest variance; sampling noise at the selfcheck
   budget sits far inside them (see the calibration section for the
   statistical test proper). *)
let eps_exact = 1e-9
let oracle_samples = 400
let mc_accuracy_tol = 0.18 (* > 7 sigma at s = 400, R in [0,1] *)
let ht_accuracy_tol = 0.3 (* HT weights admit heavier tails *)
let s2_accuracy_tol = 0.4 (* width-capped runs add stratification noise *)

(* A section under construction: a tally plus the shared violation
   sink. [checks] is bumped on every invariant evaluated; a failing one
   also lands in the sink with its reproducer. *)
type tally = {
  name : string;
  mutable cases : int;
  mutable checks : int;
  mutable viols : int;
  mutable skipped : int;
  sink : violation list ref;
}

let tally name sink =
  { name; cases = 0; checks = 0; viols = 0; skipped = 0; sink }

let close_tally t =
  {
    s_name = t.name;
    s_cases = t.cases;
    s_checks = t.checks;
    s_violations = t.viols;
    s_skipped = t.skipped;
  }

let check t ~invariant ~case ~artifact cond detail =
  t.checks <- t.checks + 1;
  if not cond then begin
    t.viols <- t.viols + 1;
    t.sink :=
      { section = t.name; invariant; case; detail = detail (); artifact }
      :: !(t.sink)
  end

let close a b tol = Float.abs (a -. b) <= tol

(* Per-case estimator seeds come from their own stream (the corpus has
   its own), drawn in corpus order before any estimator runs — the seed
   in a violation artifact replays the case alone. *)
let case_seed rng = Int64.to_int (Prng.bits64 rng) land max_int

let artifact_of c ~seed =
  Printf.sprintf "%sseed %d\n" (Shapes.render c) seed

(* ------------------------------------------------------------------ *)
(* Oracle section                                                      *)
(* ------------------------------------------------------------------ *)

(* Everything except [jobs_used], which legitimately reflects the
   requested pool size. *)
let mc_projection (e : Mcsampling.estimate) =
  ( e.Mcsampling.value,
    e.Mcsampling.samples_used,
    e.Mcsampling.hits,
    e.Mcsampling.distinct,
    e.Mcsampling.variance_estimate,
    e.Mcsampling.chunk_samples )

let report_projection (r : Reliability.report) =
  ( r.Reliability.value,
    r.Reliability.lower,
    r.Reliability.upper,
    r.Reliability.exact,
    r.Reliability.s_given,
    r.Reliability.s_reduced,
    r.Reliability.samples_drawn,
    List.map
      (fun (s : S2bdd.result) ->
        ( s.S2bdd.value,
          s.S2bdd.lower,
          s.S2bdd.upper,
          s.S2bdd.exact,
          s.S2bdd.s_reduced,
          s.S2bdd.samples_drawn,
          s.S2bdd.stop ))
      r.Reliability.subresults )

let sampler_checks t ~tag ~case ~artifact ~rex ~upper_capped ~tol results =
  (match results with
  | [] -> ()
  | (j0, e0) :: rest ->
    List.iter
      (fun (j, e) ->
        check t ~invariant:(tag ^ ".jobs-identical") ~case ~artifact
          (mc_projection e = mc_projection e0)
          (fun () ->
            Printf.sprintf "jobs=%d value=%.17g differs from jobs=%d value=%.17g"
              j e.Mcsampling.value j0 e0.Mcsampling.value))
      rest;
    check t ~invariant:(tag ^ ".value-in-range") ~case ~artifact
      (e0.Mcsampling.value >= 0.
      && ((not upper_capped) || e0.Mcsampling.value <= 1.))
      (fun () -> Printf.sprintf "value = %.17g out of range" e0.Mcsampling.value);
    check t ~invariant:(tag ^ ".variance-nonnegative") ~case ~artifact
      (e0.Mcsampling.variance_estimate >= 0.)
      (fun () ->
        Printf.sprintf "variance_estimate = %.17g < 0"
          e0.Mcsampling.variance_estimate);
    check t ~invariant:(tag ^ ".accuracy") ~case ~artifact
      (close e0.Mcsampling.value rex tol)
      (fun () ->
        Printf.sprintf "value = %.17g vs exact %.17g (tol %g)"
          e0.Mcsampling.value rex tol))

let s2_result_checks t ~tag ~case ~artifact ~rex (r : S2bdd.result) =
  check t ~invariant:(tag ^ ".value-in-bounds") ~case ~artifact
    (r.S2bdd.lower <= r.S2bdd.value && r.S2bdd.value <= r.S2bdd.upper)
    (fun () ->
      Printf.sprintf "value = %.17g outside [%.17g, %.17g]" r.S2bdd.value
        r.S2bdd.lower r.S2bdd.upper);
  check t ~invariant:(tag ^ ".bounds-contain-exact") ~case ~artifact
    (r.S2bdd.lower -. eps_exact <= rex && rex <= r.S2bdd.upper +. eps_exact)
    (fun () ->
      Printf.sprintf "exact %.17g outside proven [%.17g, %.17g]" rex
        r.S2bdd.lower r.S2bdd.upper);
  check t ~invariant:(tag ^ ".exact-honest") ~case ~artifact
    ((not r.S2bdd.exact) || close r.S2bdd.value rex eps_exact)
    (fun () ->
      Printf.sprintf "claims exact but value = %.17g vs %.17g" r.S2bdd.value rex);
  check t ~invariant:(tag ^ ".accuracy") ~case ~artifact
    (close r.S2bdd.value rex s2_accuracy_tol)
    (fun () ->
      Printf.sprintf "value = %.17g vs exact %.17g (tol %g)" r.S2bdd.value rex
        s2_accuracy_tol)

let reliability_checks t ~tag ~case ~artifact ~rex results =
  match results with
  | [] -> ()
  | (j0, r0) :: rest ->
    List.iter
      (fun (j, r) ->
        check t ~invariant:(tag ^ ".jobs-identical") ~case ~artifact
          (report_projection r = report_projection r0)
          (fun () ->
            Printf.sprintf "jobs=%d value=%.17g differs from jobs=%d value=%.17g"
              j r.Reliability.value j0 r0.Reliability.value))
      rest;
    check t ~invariant:(tag ^ ".value-in-bounds") ~case ~artifact
      (r0.Reliability.lower <= r0.Reliability.value
      && r0.Reliability.value <= r0.Reliability.upper)
      (fun () ->
        Printf.sprintf "value = %.17g outside [%.17g, %.17g]"
          r0.Reliability.value r0.Reliability.lower r0.Reliability.upper);
    check t ~invariant:(tag ^ ".bounds-contain-exact") ~case ~artifact
      (r0.Reliability.lower -. eps_exact <= rex
      && rex <= r0.Reliability.upper +. eps_exact)
      (fun () ->
        Printf.sprintf "exact %.17g outside proven [%.17g, %.17g]" rex
          r0.Reliability.lower r0.Reliability.upper);
    check t ~invariant:(tag ^ ".exact-honest") ~case ~artifact
      ((not r0.Reliability.exact) || close r0.Reliability.value rex eps_exact)
      (fun () ->
        Printf.sprintf "claims exact but value = %.17g vs %.17g"
          r0.Reliability.value rex);
    check t ~invariant:(tag ^ ".exact-implies-no-sampling") ~case ~artifact
      ((not r0.Reliability.exact) || r0.Reliability.s_reduced = 0)
      (fun () ->
        Printf.sprintf "exact run reports s_reduced = %d (want 0)"
          r0.Reliability.s_reduced);
    check t ~invariant:(tag ^ ".accuracy") ~case ~artifact
      (close r0.Reliability.value rex s2_accuracy_tol)
      (fun () ->
        Printf.sprintf "value = %.17g vs exact %.17g (tol %g)"
          r0.Reliability.value rex s2_accuracy_tol)

let oracle_case t trace ~jobs (c : Shapes.case) ~seed ~rex =
  Trace.span trace "selfcheck.case" ~args:[ ("label", Trace.Str c.Shapes.label) ]
  @@ fun () ->
  let case = c.Shapes.label in
  let artifact = artifact_of c ~seed in
  let g = c.Shapes.graph and terminals = c.Shapes.terminals in
  let per_jobs run = List.map (fun j -> (j, run j)) jobs in
  let mc_results =
    per_jobs (fun j ->
        Mcsampling.monte_carlo ~seed ~jobs:j g ~terminals
          ~samples:oracle_samples)
  in
  sampler_checks t ~tag:"mc" ~case ~artifact ~rex ~upper_capped:true
    ~tol:mc_accuracy_tol mc_results;
  let ht_results =
    per_jobs (fun j ->
        Mcsampling.horvitz_thompson ~seed ~jobs:j g ~terminals
          ~samples:oracle_samples)
  in
  sampler_checks t ~tag:"ht" ~case ~artifact ~rex ~upper_capped:false
    ~tol:ht_accuracy_tol ht_results;
  (* The bit-sliced kernel draws different possible graphs from the
     same seed (one batch stream feeds 62 worlds), so there is no
     cross-mode bit-identity to pin; it must instead satisfy the same
     estimator invariants as the flat mode — jobs-bit-identity within
     the mode, range, non-negative variance, and agreement with the
     exact oracle at the sampling tolerance. *)
  let mc_bitsliced_results =
    per_jobs (fun j ->
        Mcsampling.monte_carlo ~seed ~jobs:j ~kernel:Mcsampling.Bitsliced g
          ~terminals ~samples:oracle_samples)
  in
  sampler_checks t ~tag:"mc-bitsliced" ~case ~artifact ~rex ~upper_capped:true
    ~tol:mc_accuracy_tol mc_bitsliced_results;
  let ht_bitsliced_results =
    per_jobs (fun j ->
        Mcsampling.horvitz_thompson ~seed ~jobs:j
          ~kernel:Mcsampling.Bitsliced g ~terminals ~samples:oracle_samples)
  in
  sampler_checks t ~tag:"ht-bitsliced" ~case ~artifact ~rex
    ~upper_capped:false ~tol:ht_accuracy_tol ht_bitsliced_results;
  (* Differential oracle for the flat sampling kernels: the retained
     pre-kernel implementations must reproduce the kernel-path
     estimates bit for bit (same seed, same chunking, same draws). *)
  let kernel_vs_reference ~tag results reference =
    match results with
    | [] -> ()
    | (_, e0) :: _ ->
      let r = reference ?seed:(Some seed) g ~terminals ~samples:oracle_samples in
      check t
        ~invariant:(tag ^ ".kernel-matches-reference")
        ~case ~artifact
        (mc_projection e0 = mc_projection r)
        (fun () ->
          Printf.sprintf "kernel value = %.17g vs reference %.17g"
            e0.Mcsampling.value r.Mcsampling.value)
  in
  kernel_vs_reference ~tag:"mc" mc_results Reference.monte_carlo;
  kernel_vs_reference ~tag:"ht" ht_results Reference.horvitz_thompson;
  (* Binary-container round trip: serializing through lib/bingraph and
     parsing the bytes back must preserve the graph bit for bit — the
     header digest equals a recomputation over the round-tripped graph,
     and MC estimates at every jobs level are bit-identical to the
     text-path results above (same seed, same chunk layout). *)
  let bg = Bingraph.of_bytes (Bingraph.to_bytes (Bingraph.of_graph g)) in
  let g' = Bingraph.to_graph bg in
  check t ~invariant:"bingraph.digest-stable" ~case ~artifact
    (Bingraph.digest bg = Bingraph.Digest.of_graph g')
    (fun () ->
      Printf.sprintf "header digest %d vs recomputed %d" (Bingraph.digest bg)
        (Bingraph.Digest.of_graph g'));
  List.iter
    (fun (j, (e : Mcsampling.estimate)) ->
      let e' =
        Mcsampling.monte_carlo ~seed ~jobs:j g' ~terminals
          ~samples:oracle_samples
      in
      check t ~invariant:"bingraph.roundtrip-mc-identical" ~case ~artifact
        (mc_projection e = mc_projection e')
        (fun () ->
          Printf.sprintf "jobs=%d binary value=%.17g vs text value=%.17g" j
            e'.Mcsampling.value e.Mcsampling.value))
    mc_results;
  let s2 ~width ~estimator =
    let config =
      {
        S2bdd.default_config with
        S2bdd.samples = oracle_samples;
        width;
        estimator;
        seed;
      }
    in
    S2bdd.estimate ~config g ~terminals
  in
  List.iter
    (fun width ->
      s2_result_checks t
        ~tag:(Printf.sprintf "s2bdd.w%d" width)
        ~case ~artifact ~rex
        (s2 ~width ~estimator:S2bdd.Monte_carlo))
    [ 1; 4; 32; 65536 ];
  s2_result_checks t ~tag:"s2bdd.w4-ht" ~case ~artifact ~rex
    (s2 ~width:4 ~estimator:S2bdd.Horvitz_thompson);
  let reliability ~extension j =
    let config =
      { S2bdd.default_config with S2bdd.samples = oracle_samples; width = 16; seed }
    in
    Reliability.estimate ~config ~extension ~jobs:j g ~terminals
  in
  reliability_checks t ~tag:"reliability.ext" ~case ~artifact ~rex
    (per_jobs (reliability ~extension:true));
  reliability_checks t ~tag:"reliability.noext" ~case ~artifact ~rex
    (per_jobs (reliability ~extension:false))

(* ------------------------------------------------------------------ *)
(* Metamorphic section                                                 *)
(* ------------------------------------------------------------------ *)

(* The exact-BDD oracle on the raw graph: the reference both sides of
   every identity are pushed through. *)
let exact0 g ~terminals =
  Reliability.exact ~extension:false g ~terminals

let rebuild ?(extra_vertices = 0) g edges =
  Ugraph.create ~n:(Ugraph.n_vertices g + extra_vertices) edges

let edge_list g = Array.to_list (Ugraph.edges g)

(* Rewrites of Section 5, inverted: each takes a case and returns a
   transformed (graph, terminals) whose reliability provably equals the
   original's. *)
let add_self_loop rng (c : Shapes.case) =
  let loop = { Ugraph.u = 0; v = 0; p = Shapes.rand_prob rng } in
  (rebuild c.Shapes.graph (loop :: edge_list c.Shapes.graph), c.Shapes.terminals)

let add_floating_cycle rng (c : Shapes.case) =
  let n = Ugraph.n_vertices c.Shapes.graph in
  let tri =
    [
      { Ugraph.u = n; v = n + 1; p = Shapes.rand_prob rng };
      { Ugraph.u = n + 1; v = n + 2; p = Shapes.rand_prob rng };
      { Ugraph.u = n + 2; v = n; p = Shapes.rand_prob rng };
    ]
  in
  ( rebuild ~extra_vertices:3 c.Shapes.graph (tri @ edge_list c.Shapes.graph),
    c.Shapes.terminals )

(* Split edge 0 into two parallels with the same combined presence
   probability: p = 1 - (1 - p1)(1 - p2). *)
let split_parallel rng (c : Shapes.case) =
  match edge_list c.Shapes.graph with
  | [] -> None
  | e :: rest ->
    let p1 = e.Ugraph.p *. (0.2 +. (0.6 *. Prng.float rng)) in
    let p2 = 1. -. ((1. -. e.Ugraph.p) /. (1. -. p1)) in
    let p2 = Float.max 0. (Float.min 1. p2) in
    let es =
      { e with Ugraph.p = p1 } :: { e with Ugraph.p = p2 } :: rest
    in
    Some (rebuild c.Shapes.graph es, c.Shapes.terminals)

(* Subdivide edge 0 through a fresh non-terminal, splitting its
   probability multiplicatively: p = p^a * p^(1-a). *)
let subdivide_series rng (c : Shapes.case) =
  match edge_list c.Shapes.graph with
  | [] -> None
  | e :: rest ->
    let w = Ugraph.n_vertices c.Shapes.graph in
    let a = 0.2 +. (0.6 *. Prng.float rng) in
    let es =
      { Ugraph.u = e.Ugraph.u; v = w; p = Float.pow e.Ugraph.p a }
      :: { Ugraph.u = w; v = e.Ugraph.v; p = Float.pow e.Ugraph.p (1. -. a) }
      :: rest
    in
    Some (rebuild ~extra_vertices:1 c.Shapes.graph es, c.Shapes.terminals)

let relabel rng (c : Shapes.case) =
  let n = Ugraph.n_vertices c.Shapes.graph in
  let perm = Array.init n Fun.id in
  Prng.shuffle rng perm;
  let es =
    List.map
      (fun (e : Ugraph.edge) ->
        { Ugraph.u = perm.(e.Ugraph.u); v = perm.(e.Ugraph.v); p = e.Ugraph.p })
      (edge_list c.Shapes.graph)
  in
  ( Ugraph.create ~n es,
    List.map (fun v -> perm.(v)) c.Shapes.terminals )

(* Lemma 5.1 on a synthetic bridge: join two solved cases at one
   terminal each through a fresh bridge edge; the joined reliability
   must factor as pb * R1 * R2. *)
let bridge_join rng (c1 : Shapes.case) (c2 : Shapes.case) =
  let n1 = Ugraph.n_vertices c1.Shapes.graph in
  let shift =
    List.map (fun (e : Ugraph.edge) ->
        { e with Ugraph.u = e.Ugraph.u + n1; v = e.Ugraph.v + n1 })
  in
  let pb = Shapes.rand_prob rng in
  let bridge =
    {
      Ugraph.u = List.hd c1.Shapes.terminals;
      v = List.hd c2.Shapes.terminals + n1;
      p = pb;
    }
  in
  let g =
    Ugraph.create
      ~n:(n1 + Ugraph.n_vertices c2.Shapes.graph)
      ((bridge :: edge_list c1.Shapes.graph)
      @ shift (edge_list c2.Shapes.graph))
  in
  let terminals =
    c1.Shapes.terminals @ List.map (fun v -> v + n1) c2.Shapes.terminals
  in
  (pb, g, terminals)

let metamorphic_case t rng (c : Shapes.case) ~rex =
  let case = c.Shapes.label in
  let artifact = Shapes.render c in
  let identity invariant = function
    | None -> ()
    | Some (g, terminals) -> (
      match exact0 g ~terminals with
      | Error (`Node_budget_exceeded _) -> t.skipped <- t.skipped + 1
      | Ok r ->
        check t ~invariant ~case ~artifact
          (close r rex eps_exact)
          (fun () ->
            Printf.sprintf "transformed exact %.17g vs original %.17g" r rex))
  in
  identity "metamorphic.self-loop" (Some (add_self_loop rng c));
  identity "metamorphic.floating-cycle" (Some (add_floating_cycle rng c));
  identity "metamorphic.parallel-split" (split_parallel rng c);
  identity "metamorphic.series-subdivision" (subdivide_series rng c);
  identity "metamorphic.relabel" (Some (relabel rng c));
  (match Reliability.exact ~extension:true c.Shapes.graph ~terminals:c.Shapes.terminals with
  | Error (`Node_budget_exceeded _) -> t.skipped <- t.skipped + 1
  | Ok r ->
    check t ~invariant:"metamorphic.extension-exactness" ~case ~artifact
      (close r rex eps_exact)
      (fun () ->
        Printf.sprintf "extension pipeline exact %.17g vs raw BDD %.17g" r rex));
  (* Relabeling worlds: lane [l] of the bit-sliced verdict word depends
     only on bit [l] of every slab word, so permuting the 62 bit-lanes
     of a drawn slab must permute the verdict bits identically — the
     kernel may not couple worlds that share a batch. *)
  let lanes = Prng.Bitbatch.lanes in
  let csr = Kernel.Csr.of_graph c.Shapes.graph in
  let sc = Kernel.create () in
  let slab_seed = case_seed rng in
  let terminals = Array.of_list c.Shapes.terminals in
  Kernel.draw_bitsliced sc csr (Prng.create slab_seed);
  let before =
    Kernel.connected_lanes sc csr terminals ~active:Prng.Bitbatch.all
  in
  let perm = Array.init lanes (fun l -> l) in
  Prng.shuffle rng perm;
  for pos = 0 to Kernel.Csr.n_edges csr - 1 do
    let w = Kernel.slab_word sc pos in
    let w' = ref 0 in
    for l = 0 to lanes - 1 do
      if (w lsr l) land 1 = 1 then w' := !w' lor (1 lsl perm.(l))
    done;
    Kernel.set_slab_word sc pos !w'
  done;
  let after =
    Kernel.connected_lanes sc csr terminals ~active:Prng.Bitbatch.all
  in
  let permuted_ok = ref true in
  for l = 0 to lanes - 1 do
    if (after lsr perm.(l)) land 1 <> (before lsr l) land 1 then
      permuted_ok := false
  done;
  check t ~invariant:"metamorphic.lane-permutation" ~case
    ~artifact:(artifact ^ Printf.sprintf "slab seed %d\n" slab_seed)
    !permuted_ok
    (fun () ->
      Printf.sprintf "permuted verdict %#x vs original %#x" after before)

let metamorphic_bridge t rng (c1, r1) (c2, r2) =
  let pb, g, terminals = bridge_join rng c1 c2 in
  let case =
    Printf.sprintf "bridge(%s | %s)" c1.Shapes.label c2.Shapes.label
  in
  let artifact = Shapes.render c1 ^ Shapes.render c2 in
  match exact0 g ~terminals with
  | Error (`Node_budget_exceeded _) -> t.skipped <- t.skipped + 1
  | Ok r ->
    check t ~invariant:"metamorphic.bridge-factoring" ~case ~artifact
      (close r (pb *. r1 *. r2) eps_exact)
      (fun () ->
        Printf.sprintf "joined exact %.17g vs pb * R1 * R2 = %.17g" r
          (pb *. r1 *. r2))

(* ------------------------------------------------------------------ *)
(* Calibration section                                                 *)
(* ------------------------------------------------------------------ *)

let calibration_samples = 800
let ci_z = 1.96 (* nominal 95% normal interval *)

let uniform_graph p es n =
  List.map (fun (u, v) -> { Ugraph.u; v; p }) es |> Ugraph.create ~n

let grid_graph rows cols p =
  let idx r c = (r * cols) + c in
  let es = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then es := (idx r c, idx r (c + 1)) :: !es;
      if r + 1 < rows then es := (idx r c, idx (r + 1) c) :: !es
    done
  done;
  uniform_graph p !es (rows * cols)

(* Fixed mid-reliability topologies, chosen per estimator: the CI
   behind [variance_estimate] is only claimed where its normal
   approximation applies. MC's holds on any graph with R away from
   {0, 1}. HT's Eq.(8) plug-in additionally assumes the sparse-sampling
   regime — every sampled possible graph distinct (dedup ratio ~ 1) —
   so its graphs carry enough edges that mask collisions at the
   calibration budget are negligible; outside that regime the
   correction term swamps the estimate (see the variance-clamp counter)
   and the CI degenerates by design, which is the estimator's
   documented limitation, not a coverage bug. *)
let mc_calibration_cases =
  [
    ( "cal:grid23",
      grid_graph 2 3 0.7,
      [ 0; 5 ] );
    ( "cal:theta+chord",
      uniform_graph 0.6
        [ (0, 2); (2, 1); (0, 3); (3, 1); (0, 4); (4, 1); (0, 1); (2, 3) ]
        5,
      [ 0; 1 ] );
  ]

let ht_calibration_cases =
  [
    ("cal:grid56", grid_graph 5 6 0.7, [ 0; 29 ]);
    ("cal:grid66", grid_graph 6 6 0.65, [ 0; 35 ]);
  ]

(* The fewest covering replicates out of [n] we accept as consistent
   with true coverage >= 95%: mean minus 4.5 binomial standard
   deviations minus a 2-replicate slack for the CLT approximation error
   of the intervals themselves. *)
let min_covering n =
  let fn = float_of_int n in
  let lo = (0.95 *. fn) -. ((4.5 *. sqrt (fn *. 0.95 *. 0.05)) +. 2.) in
  int_of_float (Float.ceil lo)

(* Coverage floor for the {e stopped} estimator. Sequential stopping
   peeks at the interval after every round, and stopping exactly when
   the interval first looks narrow biases coverage low relative to the
   fixed-n Wilson guarantee (optional stopping). The floor is therefore
   the same 4.5-sigma binomial bound evaluated at a 90% nominal level:
   stopped Wilson coverage sits comfortably above it in practice, while
   a genuine interval bug — the zero-width Wald interval at 0 hits this
   release fixed, a wrong mass scaling — lands far below. *)
let min_covering_stopped n =
  let fn = float_of_int n in
  let lo = (0.90 *. fn) -. ((4.5 *. sqrt (fn *. 0.90 *. 0.10)) +. 2.) in
  int_of_float (Float.ceil lo)

(* Narrow enough that the driver needs more than one round (the
   schedule actually adapts), loose enough that the cap never trips at
   the calibration scale. *)
let adaptive_ci_width = 0.015
let adaptive_max_samples = 40_000

let calibration t rng ~trials =
  let replicates = max 40 (min 400 (2 * trials)) in
  let calibrate tag run (label, g, terminals) =
    match exact0 g ~terminals with
    | Error (`Node_budget_exceeded _) -> t.skipped <- t.skipped + 1
    | Ok rex ->
      t.cases <- t.cases + 1;
      let case = Printf.sprintf "%s/%s" label tag in
      let artifact =
        Printf.sprintf "calibration %s exact=%.17g replicates=%d samples=%d\n"
          case rex replicates calibration_samples
      in
      let covered = ref 0 in
      for _ = 1 to replicates do
        let seed = case_seed rng in
        let (e : Mcsampling.estimate) = run g ~terminals ~seed in
        let half = ci_z *. sqrt (Float.max 0. e.Mcsampling.variance_estimate) in
        if Float.abs (e.Mcsampling.value -. rex) <= half +. 1e-12 then
          incr covered
      done;
      check t ~invariant:"calibration.ci-coverage" ~case ~artifact
        (!covered >= min_covering replicates)
        (fun () ->
          Printf.sprintf "%d/%d replicates covered (floor %d)" !covered
            replicates (min_covering replicates))
  in
  List.iter
    (calibrate "mc" (fun g ~terminals ~seed ->
         Mcsampling.monte_carlo ~seed g ~terminals
           ~samples:calibration_samples))
    mc_calibration_cases;
  List.iter
    (calibrate "ht" (fun g ~terminals ~seed ->
         Mcsampling.horvitz_thompson ~seed g ~terminals
           ~samples:calibration_samples))
    ht_calibration_cases;
  (* Lanes of one batch word are driven by disjoint bit positions of
     the shared random words, so the 62 worlds are mutually independent
     and the CI theory above carries over to the bit-sliced kernel
     unchanged — coverage is re-tested rather than assumed. *)
  List.iter
    (calibrate "mc-bitsliced" (fun g ~terminals ~seed ->
         Mcsampling.monte_carlo ~seed ~kernel:Mcsampling.Bitsliced g
           ~terminals ~samples:calibration_samples))
    mc_calibration_cases;
  List.iter
    (calibrate "ht-bitsliced" (fun g ~terminals ~seed ->
         Mcsampling.horvitz_thompson ~seed ~kernel:Mcsampling.Bitsliced g
           ~terminals ~samples:calibration_samples))
    ht_calibration_cases;
  (* Sequential stopping: the interval the run {e stopped on} must still
     cover the truth (at the looser stopped floor, see
     [min_covering_stopped]) and the stopping rule itself must engage —
     every replicate ends on width-reached, not on the sample cap. *)
  let calibrate_adaptive tag run (label, g, terminals) =
    match exact0 g ~terminals with
    | Error (`Node_budget_exceeded _) -> t.skipped <- t.skipped + 1
    | Ok rex ->
      t.cases <- t.cases + 1;
      let case = Printf.sprintf "%s/%s" label tag in
      let artifact =
        Printf.sprintf
          "calibration %s exact=%.17g replicates=%d ci_width=%g cap=%d\n" case
          rex replicates adaptive_ci_width adaptive_max_samples
      in
      let covered = ref 0 and width_reached = ref 0 in
      for _ = 1 to replicates do
        let seed = case_seed rng in
        let (r : Adaptive.result) = run g ~terminals ~seed in
        if r.Adaptive.stop = Adaptive.Width_reached then incr width_reached;
        if
          r.Adaptive.lower -. 1e-12 <= rex && rex <= r.Adaptive.upper +. 1e-12
        then incr covered
      done;
      check t ~invariant:"calibration.stopped-ci-coverage" ~case ~artifact
        (!covered >= min_covering_stopped replicates)
        (fun () ->
          Printf.sprintf "%d/%d stopped replicates covered (floor %d)"
            !covered replicates (min_covering_stopped replicates));
      check t ~invariant:"calibration.stopping-rule-engages" ~case ~artifact
        (!width_reached = replicates)
        (fun () ->
          Printf.sprintf "%d/%d replicates stopped on width-reached"
            !width_reached replicates)
  in
  List.iter
    (calibrate_adaptive "adaptive-mc" (fun g ~terminals ~seed ->
         Adaptive.monte_carlo ~seed g ~terminals ~ci_width:adaptive_ci_width
           ~max_samples:adaptive_max_samples))
    mc_calibration_cases;
  calibrate_adaptive "adaptive-pro"
    (fun g ~terminals ~seed ->
      (* A tiny width cap forces deletion, so the Neyman-stratified plan
         path — not just the proven bounds — is what gets calibrated. *)
      let config =
        {
          S2bdd.default_config with
          S2bdd.samples = calibration_samples;
          width = 2;
          seed;
        }
      in
      Adaptive.reliability ~config g ~terminals ~ci_width:adaptive_ci_width
        ~max_samples:adaptive_max_samples)
    (List.hd mc_calibration_cases)

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let record_tally o t =
  let p k v = Obs.add o (t.name ^ "." ^ k) v in
  p "cases" t.cases;
  p "checks" t.checks;
  p "violations" t.viols;
  p "skipped" t.skipped

let run ?(obs = Obs.disabled) ?(trace = Trace.disabled) ?(jobs = default_jobs)
    ?(trials = 50) ?(seed = 1) () =
  if jobs = [] || List.exists (fun j -> j < 1) jobs then
    invalid_arg "Check.run: jobs must be a non-empty list of positive ints";
  let o = Obs.sub obs "selfcheck" in
  let sink = ref [] in
  let corpus = Shapes.corpus ~seed ~trials in
  (* Independent streams per concern, all derived from [seed]: estimator
     seeds (oracle + calibration) and metamorphic draws must not shift
     when a section's internals change. *)
  let seed_rng = Prng.create (seed lxor 0x5e1fc) in
  let meta_rng = Prng.create (seed lxor 0x3e7a) in
  let cal_rng = Prng.create (seed lxor 0xca11b) in
  (* Solve every case once; the oracle result feeds all sections. An
     unsolvable case (node budget) is skipped everywhere. *)
  let solved, skipped_cases =
    List.fold_left
      (fun (acc, sk) (c : Shapes.case) ->
        let cseed = case_seed seed_rng in
        match
          exact0 c.Shapes.graph ~terminals:c.Shapes.terminals
        with
        | Ok rex -> ((c, cseed, rex) :: acc, sk)
        | Error (`Node_budget_exceeded _) -> (acc, sk + 1))
      ([], 0) corpus
  in
  let solved = List.rev solved in
  let oracle_t = tally "oracle" sink in
  oracle_t.skipped <- skipped_cases;
  Obs.time o "oracle" (fun () ->
      Trace.span trace "selfcheck.oracle" @@ fun () ->
      List.iter
        (fun (c, cseed, rex) ->
          oracle_t.cases <- oracle_t.cases + 1;
          oracle_case oracle_t trace ~jobs c ~seed:cseed ~rex)
        solved);
  record_tally o oracle_t;
  let meta_t = tally "metamorphic" sink in
  Obs.time o "metamorphic" (fun () ->
      Trace.span trace "selfcheck.metamorphic" @@ fun () ->
      List.iter
        (fun (c, _, rex) ->
          meta_t.cases <- meta_t.cases + 1;
          metamorphic_case meta_t meta_rng c ~rex)
        solved;
      let rec pair = function
        | (c1, _, r1) :: (c2, _, r2) :: rest ->
          meta_t.cases <- meta_t.cases + 1;
          metamorphic_bridge meta_t meta_rng (c1, r1) (c2, r2);
          pair rest
        | _ -> ()
      in
      pair solved);
  record_tally o meta_t;
  let cal_t = tally "calibration" sink in
  Obs.time o "calibration" (fun () ->
      Trace.span trace "selfcheck.calibration" @@ fun () ->
      calibration cal_t cal_rng ~trials);
  record_tally o cal_t;
  let sections = [ close_tally oracle_t; close_tally meta_t; close_tally cal_t ] in
  {
    seed;
    trials;
    jobs;
    sections;
    violations = List.rev !sink;
    cases = List.fold_left (fun a s -> a + s.s_cases) 0 sections;
    checks = List.fold_left (fun a s -> a + s.s_checks) 0 sections;
  }

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let violation_json v =
  J.Obj
    [
      ("section", J.Str v.section);
      ("invariant", J.Str v.invariant);
      ("case", J.Str v.case);
      ("detail", J.Str v.detail);
      ("artifact", J.Str v.artifact);
    ]

let section_json s =
  J.Obj
    [
      ("name", J.Str s.s_name);
      ("cases", J.Int s.s_cases);
      ("checks", J.Int s.s_checks);
      ("violations", J.Int s.s_violations);
      ("skipped", J.Int s.s_skipped);
    ]

let take n l =
  List.filteri (fun i _ -> i < n) l

let report_json r =
  let nviol = List.length r.violations in
  J.Obj
    [
      ( "netrel",
        J.Obj
          [
            ("emitter", J.Str "netrel");
            ("schema", J.Int Statsdoc.schema_version);
            ("tool", J.Str "selfcheck");
          ] );
      ( "run",
        J.Obj
          [
            ("seed", J.Int r.seed);
            ("trials", J.Int r.trials);
            ("jobs", J.List (List.map (fun j -> J.Int j) r.jobs));
          ] );
      ("sections", J.List (List.map section_json r.sections));
      ( "violations",
        J.List (List.map violation_json (take max_reported_violations r.violations))
      );
      ( "result",
        J.Obj
          [
            ("cases", J.Int r.cases);
            ("checks", J.Int r.checks);
            ("violations", J.Int nviol);
            ("ok", J.Bool (ok r));
          ] );
    ]

let pp_report fmt r =
  Format.fprintf fmt "selfcheck: seed=%d trials=%d jobs=%s@." r.seed r.trials
    (String.concat "," (List.map string_of_int r.jobs));
  List.iter
    (fun s ->
      Format.fprintf fmt "  %-12s cases=%-4d checks=%-5d violations=%-3d skipped=%d@."
        s.s_name s.s_cases s.s_checks s.s_violations s.s_skipped)
    r.sections;
  let nviol = List.length r.violations in
  let shown = take max_reported_violations r.violations in
  List.iter
    (fun v ->
      Format.fprintf fmt "violation [%s] %s on %s: %s@." v.section v.invariant
        v.case v.detail;
      String.split_on_char '\n' v.artifact
      |> List.iter (fun line ->
             if line <> "" then Format.fprintf fmt "    %s@." line))
    shown;
  if nviol > List.length shown then
    Format.fprintf fmt "... and %d more violations@."
      (nviol - List.length shown);
  Format.fprintf fmt "result: %s (%d cases, %d checks, %d violations)@."
    (if ok r then "OK" else "FAIL")
    r.cases r.checks nviol
