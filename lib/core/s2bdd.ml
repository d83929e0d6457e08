module F = Bddbase.Fstate
module O = Graphalgo.Ordering

type estimator =
  | Monte_carlo
  | Horvitz_thompson

type deletion_heuristic =
  | Paper_heuristic
  | Random_deletion

type config = {
  samples : int;
  width : int;
  estimator : estimator;
  seed : int;
  order : [ `Auto | `Strategy of Graphalgo.Ordering.strategy | `Explicit of int array ];
  eager : bool;
  merge_flags : bool;
  heuristic : deletion_heuristic;
  max_work : int;
}

let default_config =
  {
    samples = 10_000;
    width = 10_000;
    estimator = Monte_carlo;
    seed = 1;
    order = `Auto;
    eager = true;
    merge_flags = true;
    heuristic = Paper_heuristic;
    max_work = 80_000_000;
  }

type stop_reason =
  | Completed    (* every layer processed; all mass resolved or deleted *)
  | Converged    (* expected residual sampling work fell below one descent *)
  | Stagnated    (* saturated layers stopped improving the bounds *)
  | Work_capped  (* construction effort budget exhausted *)

let stop_reason_name = function
  | Completed -> "completed"
  | Converged -> "converged"
  | Stagnated -> "stagnated"
  | Work_capped -> "work-capped"

type result = {
  value : float;
  lower : float;
  upper : float;
  pc : Xprob.t;
  pd : Xprob.t;
  exact : bool;
  s_given : int;
  s_reduced : int;
  samples_drawn : int;
  sampled_nodes : int;
  deleted_nodes : int;
  layers_built : int;
  max_width : int;
  peak_state_words : int;
  aborted : bool;
  stop : stop_reason;
}

let trivial_result cfg value =
  {
    value;
    lower = value;
    upper = value;
    pc = (if value >= 1. then Xprob.one else Xprob.zero);
    pd = (if value >= 1. then Xprob.zero else Xprob.one);
    exact = true;
    s_given = cfg.samples;
    s_reduced = 0;
    samples_drawn = 0;
    sampled_nodes = 0;
    deleted_nodes = 0;
    layers_built = 0;
    max_width = 0;
    peak_state_words = 0;
    aborted = false;
    stop = Completed;
  }

(* Randomised rounding: E[alloc rng x] = x exactly. *)
let alloc rng x =
  if x <= 0. then 0
  else
    let f = Float.floor x in
    int_of_float f + (if Prng.bernoulli rng (x -. f) then 1 else 0)

(* Horvitz–Thompson weight q / (1 - (1 - q)^n): the single shared
   implementation lives in Mcsampling (this module used to carry a
   divergent copy with its own underflow threshold). *)
let ht_weight = Mcsampling.ht_weight

(* One sampling stratum: a deleted (or leftover) node, the weight its
   within-node estimate is scaled by, and its own descent stream, split
   from the construction generator when the node is consumed. The
   weight is the node's mass [p_n], except in the fixed-budget path's
   randomised-rounding tail, where it is [N_n / s']. Strata are sampled
   after construction — possibly on a domain pool, since each node's
   descents are independent: the frontier state is a sufficient
   statistic and nothing in the construction depends on descent
   outcomes. [sm_drawn]/[sm_hits] accumulate across draws; because the
   stream is private and advanced sequentially, the counters after a
   total of [n] draws do not depend on how the draws were partitioned,
   nor on which domain ran them. *)
type stratum = {
  sm_pos : int;
  sm_state : F.state;
  sm_weight : float;
  sm_rng : Prng.t;
  mutable sm_drawn : int;
  mutable sm_hits : int;
}

let stratum rng ~pos st weight =
  { sm_pos = pos; sm_state = st; sm_weight = weight; sm_rng = Prng.split rng;
    sm_drawn = 0; sm_hits = 0 }

(* [n] more Monte-Carlo descents from [s], folded into its counters.
   A DP descent ([F.descend_kernel]) anchors past connectivity in the
   node's state, flips the remaining edges on the stratum's stream and
   decides the indicator with one early-exit union-find pass over the
   drawn edges. It runs on the per-domain kernel scratch
   ([Kernel.scratch], re-initialised per descent, so reuse across tasks
   and domains cannot affect results) and returns the verdict; the HT
   estimator's detail descents also pack the completion's mask, for its
   hash and log-probability. *)
let draw ctx s ~n =
  let sc = Kernel.scratch () in
  let hits = ref 0 in
  for _ = 1 to n do
    if
      F.descend_kernel ctx ~scratch:sc ~detail:false ~pos:s.sm_pos s.sm_state
        s.sm_rng
    then incr hits
  done;
  s.sm_drawn <- s.sm_drawn + n;
  s.sm_hits <- s.sm_hits + !hits

(* Horvitz–Thompson within-node estimate from [n >= 1] descents of [s]:
   the weighted sum over its distinct connected completions, the only
   ones whose log-probability it reads. *)
let ht_r_hat ctx s ~n =
  let sc = Kernel.scratch () in
  let seen : (int, float * bool) Hashtbl.t = Hashtbl.create n in
  for _ = 1 to n do
    let connected =
      F.descend_kernel ctx ~scratch:sc ~detail:true ~pos:s.sm_pos s.sm_state
        s.sm_rng
    in
    let h = Kernel.mask_hash sc in
    if not (Hashtbl.mem seen h) then begin
      let logq = if connected then F.descent_log_q ctx ~scratch:sc else 0. in
      Hashtbl.add seen h (logq, connected)
    end
  done;
  Hashtbl.fold
    (fun _ (logq, connected) acc ->
      if connected then acc +. ht_weight ~logq ~n else acc)
    seen 0.

(* [`Auto] orders edges by multi-source BFS from the terminals: each
   terminal's incident edges are decided as early as possible, which is
   what lets [pc]/[pd] accumulate quickly (and hence Theorem 1 cut the
   sample budget). *)
let resolve_order cfg g ~terminals =
  match cfg.order with
  | `Auto -> O.order_edges (O.Bfs_from terminals) g
  | `Strategy s -> O.order_edges s g
  | `Explicit o -> o

(* The trivial answers every entry point shares: k < 2 connects by
   definition; an isolated terminal or terminals in different components
   of the all-present graph can never connect. *)
let trivial_of cfg co g ~terminals =
  if List.length terminals < 2 then begin
    Obs.incr co "trivial";
    Some (trivial_result cfg 1.)
  end
  else if List.exists (fun t -> Ugraph.degree g t = 0) terminals then begin
    Obs.incr co "trivial";
    Some (trivial_result cfg 0.)
  end
  else if
    not
      (Graphalgo.Connectivity.terminals_connected g
         ~present:(Array.make (Ugraph.n_edges g) true)
         terminals)
  then begin
    Obs.incr co "trivial";
    Some (trivial_result cfg 0.)
  end
  else None

(* What one construction run established, independent of how the
   deleted / leftover mass is then sampled. *)
type construction = {
  c_pc : Xprob.t;
  c_pd : Xprob.t;
  c_layers : int;
  c_max_width : int;
  c_peak_state_words : int;
  c_deleted_nodes : int;
  c_stop : stop_reason;
  c_s_reduced : int;
}

(* The layer-by-layer S2BDD construction (Section 4.3), parameterised
   over [consume]: what happens to a node deleted at a saturated layer
   or left over after an early abort (see [build] for the three
   consumers). [consume] receives the Theorem-1 budget [s_cur] current
   at consumption time, the descent layer [pos], the node's frontier
   state and its mass — and is responsible for any draws it makes on
   [rng]. Nothing it does feeds back into the construction, so every
   consumer sees the same layers, bounds and stop. *)
let construct ~obs ~co ~trace ~cfg ~ctx ~rng g ~consume =
  let m = F.n_positions ctx in
  let pc = ref Xprob.zero and pd = ref Xprob.zero in
  let s_cur = ref cfg.samples in
  let deleted_nodes = ref 0 in
  let max_width = ref 1 in
  let peak_state_words = ref 0 in
  let stagnant = ref 0 in
  let stop = ref Completed in
  let work = ref 0 in
  let merges = ref 0 in
  let update_s_cur () =
    s_cur :=
      Samplesize.reduced ~s:cfg.samples
        ~pc:(Xprob.to_float_approx !pc)
        ~pd:(Xprob.to_float_approx !pd)
  in
  let current = ref (F.Key_table.create 16) in
  F.Key_table.add !current F.initial (ref Xprob.one);
  (* Placeholder of the deletion's mass buffer. *)
  let no_mass = ref Xprob.zero in
  (* Remaining-degree table, decremented as each edge is processed so
     the deletion heuristic reads d values in O(state size). *)
  let rem = Array.init (Ugraph.n_vertices g) (Ugraph.degree g) in
  let pos = ref 0 in
  let t_build = Obs.now obs in
  let t_construction = Trace.now trace in
  while !stop = Completed && !pos < m && F.Key_table.length !current > 0 do
    let t_layer = Trace.now trace in
    let deleted_before = !deleted_nodes in
    let e = F.edge_at ctx !pos in
    let resolved_before =
      Xprob.to_float_approx !pc +. Xprob.to_float_approx !pd
    in
    let next = F.Key_table.create (2 * F.Key_table.length !current) in
    (* Generating and merging. [generate] and [expand] are built once
       per layer, and the two edge weights computed once, so a node
       allocates only its two children's masses and states (each state
       its own key, hashed once by [F.step]), and the table entry of a
       child no earlier node produced. The table's iteration order
       decides the order of expansion, of deletion ties and of
       consumption, hence every estimate, so the hash, the table sizes
       and the order of insertion are fixed. *)
    let layer = !pos in
    let p_exists = e.Ugraph.p in
    let p_absent = 1. -. p_exists in
    let generate st pn ~exists weight =
      let p' = Xprob.scale weight !pn in
      match F.step ctx ~eager:cfg.eager ~pos:layer st ~exists with
      | F.Sink1 -> pc := Xprob.add !pc p'
      | F.Sink0 -> pd := Xprob.add !pd p'
      | F.Live st' -> (
        match F.Key_table.find_opt next st' with
        | Some acc ->
          incr merges;
          acc := Xprob.add !acc p'
        | None -> F.Key_table.add next st' (ref p'))
    in
    let expand st pn =
      work := !work + (2 * (4 + F.key_length st));
      if p_exists > 0. then generate st pn ~exists:true p_exists;
      if p_absent > 0. then generate st pn ~exists:false p_absent
    in
    F.Key_table.iter expand !current;
    rem.(e.Ugraph.u) <- rem.(e.Ugraph.u) - 1;
    if e.Ugraph.v <> e.Ugraph.u then rem.(e.Ugraph.v) <- rem.(e.Ugraph.v) - 1;
    let width = F.Key_table.length next in
    if width > !max_width then max_width := width;
    update_s_cur ();
    (* Deleting procedure: keep the top-w nodes by priority, sample
       the rest right away (their states are discarded after). *)
    let saturated = width > cfg.width in
    if saturated then begin
      let states = Array.make width F.initial and masses = Array.make width no_mass in
      let prio = Array.make width 0. in
      let i = ref 0 in
      F.Key_table.iter
        (fun st pn ->
          prio.(!i) <-
            (match cfg.heuristic with
            | Paper_heuristic ->
              F.heuristic_log2 ctx ~rem st ~log2_pn:(Xprob.log2 !pn)
            | Random_deletion -> Prng.float rng);
          states.(!i) <- st;
          masses.(!i) <- pn;
          incr i)
        next;
      (* Highest priority first. [Array.sort]'s moves follow its
         comparisons alone, so sorting the node indices by [prio] gives
         the permutation that sorting the nodes by the same comparator
         would, ties included. The kept nodes go back in that order. *)
      let by_prio = Array.init width Fun.id in
      Array.sort (fun a b -> Float.compare prio.(b) prio.(a)) by_prio;
      F.Key_table.reset next;
      for j = 0 to cfg.width - 1 do
        let x = by_prio.(j) in
        F.Key_table.add next states.(x) masses.(x)
      done;
      for j = cfg.width to width - 1 do
        let x = by_prio.(j) in
        incr deleted_nodes;
        consume ~s_cur:!s_cur ~pos:(!pos + 1) states.(x) !(masses.(x))
      done
    end;
    let layer_words =
      F.Key_table.fold (fun st _ acc -> acc + F.key_length st + 8) next 0
    in
    if layer_words > !peak_state_words then peak_state_words := layer_words;
    current := next;
    incr pos;
    (* Stagnation abort: 50 consecutive saturated layers that each
       resolve less than 1e-5 of the still-unresolved mass mean further
       construction cannot pay for itself. *)
    let resolved_after =
      Xprob.to_float_approx !pc +. Xprob.to_float_approx !pd
    in
    let gain = resolved_after -. resolved_before in
    (* Per-layer trajectory: pre-deletion width and the resolved-mass
       bounds after the layer (bounded series; see Obs.series), plus
       the width distribution (histogram — the tail is what saturates
       the deletion heuristic). *)
    Obs.series co "width" (float_of_int width);
    Obs.hist co "hist.layer_width" width;
    Obs.series co "pc" (Xprob.to_float_approx !pc);
    Obs.series co "pd" (Xprob.to_float_approx !pd);
    if Trace.enabled trace then begin
      Trace.complete trace ~ts:t_layer "layer"
        ~args:
          [
            ("layer", Int !pos);
            ("width", Int width);
            ("pc", Float (Xprob.to_float_approx !pc));
            ("pd", Float (Xprob.to_float_approx !pd));
            ("deleted", Int (!deleted_nodes - deleted_before));
          ];
      Trace.counter trace "width" (float_of_int width)
    end;
    if saturated && gain < 1e-5 *. (1. -. resolved_before) then begin
      incr stagnant;
      if !stagnant >= 50 then stop := Stagnated
    end
    else stagnant := 0;
    (* Hard cap on construction effort: wide-frontier graphs whose
       bounds keep crawling would otherwise dominate the run without
       paying for themselves (the remaining mass falls back to
       stratified sampling, which stays unbiased). *)
    if !work > cfg.max_work then stop := Work_capped;
    (* Convergence: when the live mass still undecided would receive
       less than one descent under the current Theorem-1 budget,
       further layers cannot reduce the sampling cost any more. Only
       applies once deletion has made the run inexact anyway —
       otherwise finishing yields the exact answer. *)
    if !stop = Completed && !deleted_nodes > 0 && F.Key_table.length !current > 0
    then begin
      let live =
        F.Key_table.fold (fun _ pn acc -> Xprob.add acc !pn) !current Xprob.zero
      in
      if
        float_of_int (max 1 !s_cur) *. Xprob.to_float_approx live < 1.0
      then stop := Converged
    end
  done;
  update_s_cur ();
  if Trace.enabled trace then
    Trace.complete trace ~ts:t_construction "construction"
      ~args:
        [
          ("stop", Str (stop_reason_name !stop));
          ("layers", Int !pos);
          ("edges", Int m);
          ("pc", Float (Xprob.to_float_approx !pc));
          ("pd", Float (Xprob.to_float_approx !pd));
          ("s_reduced", Int !s_cur);
          ("deleted", Int !deleted_nodes);
        ];
  (* Leftover live nodes (early abort): each becomes its own sampling
     stratum, exactly like a deleted node. *)
  if F.Key_table.length !current > 0 then begin
    if !pos >= m then
      invalid_arg "S2bdd.estimate: live states after the final layer";
    F.Key_table.iter (fun st pn -> consume ~s_cur:!s_cur ~pos:!pos st !pn) !current
  end;
  Obs.record_span co "build" (Obs.now obs -. t_build);
  Obs.add co "layers" !pos;
  Obs.add co "merges" !merges;
  Obs.add co "work" !work;
  Obs.add co "deleted_nodes" !deleted_nodes;
  Obs.gauge_max co "max_width" (float_of_int !max_width);
  Obs.gauge_max co "peak_state_words" (float_of_int !peak_state_words);
  Obs.gauge co "s_reduced" (float_of_int !s_cur);
  Obs.text co "stop" (stop_reason_name !stop);
  Obs.incr co ("stop_" ^ stop_reason_name !stop);
  {
    c_pc = !pc;
    c_pd = !pd;
    c_layers = !pos;
    c_max_width = !max_width;
    c_peak_state_words = !peak_state_words;
    c_deleted_nodes = !deleted_nodes;
    c_stop = !stop;
    c_s_reduced = !s_cur;
  }

(* [pc] and [pd] are each correct to an ulp, but the float rounding of
   [1 - pd] is independent of [pc]'s, so on a fully resolved run
   (pc + pd = 1) the two float bounds can cross by an ulp. Keep the
   interval well-formed: [lower <= upper] is part of the result's
   contract. *)
let proven c =
  let lower = Xprob.to_float_approx c.c_pc in
  (lower, Float.max lower (1. -. Xprob.to_float_approx c.c_pd))

(* The stratified contribution is an unbiased estimate of the mass
   between the proven bounds, but a realisation can overshoot them
   (even past 1) under sampling noise. [value] is clamped at the source
   so every caller — Reliability, bench sections, report.subresults —
   sees a value inside [lower, upper]. *)
let construction_result cfg c ~value ~samples_drawn ~sampled_nodes =
  let lower, upper = proven c in
  {
    value = Float.max lower (Float.min upper value);
    lower;
    upper;
    pc = c.c_pc;
    pd = c.c_pd;
    exact = c.c_deleted_nodes = 0 && c.c_stop = Completed;
    s_given = cfg.samples;
    s_reduced = c.c_s_reduced;
    samples_drawn;
    sampled_nodes;
    deleted_nodes = c.c_deleted_nodes;
    layers_built = c.c_layers;
    max_width = c.c_max_width;
    peak_state_words = c.c_peak_state_words;
    aborted = c.c_stop <> Completed;
    stop = c.c_stop;
  }

(* A construction no descent refined: its value is [lower]. *)
let unsampled_result cfg c =
  construction_result cfg c ~value:(Xprob.to_float_approx c.c_pc)
    ~samples_drawn:0 ~sampled_nodes:0

type 'u built =
  | Trivial of result
  | Built of F.ctx * construction * 'u array

(* The one construction entry behind [estimate], [prepare] and
   [bounds]: validation, the trivial answers, edge order, frontier
   context and construction stream, then the GC-accounted construction.
   The three differ only in [unit_of], which turns each deleted or
   leftover node into the sampling unit its caller keeps, in
   consumption order, or drops. [unit_of] gets the construction stream,
   so any draws it makes stay on it. *)
let build ~name ~obs ~trace cfg g ~terminals ~unit_of =
  Ugraph.validate_terminals g terminals;
  if cfg.samples <= 0 then invalid_arg (name ^ ": samples <= 0");
  if cfg.width <= 0 then invalid_arg (name ^ ": width <= 0");
  let co = Obs.sub obs "construction" in
  match trivial_of cfg co g ~terminals with
  | Some r -> Trivial r
  | None ->
    let order = resolve_order cfg g ~terminals in
    let ctx = F.make ~merge_flags:cfg.merge_flags g ~order ~terminals in
    let rng = Prng.create cfg.seed in
    let units = ref [] in
    let consume ~s_cur ~pos st pn =
      match unit_of rng ~s_cur ~pos st pn with
      | Some u -> units := u :: !units
      | None -> ()
    in
    let c =
      Obs.gc_phase co "gc" (fun () ->
          construct ~obs ~co ~trace ~cfg ~ctx ~rng g ~consume)
    in
    let units = Array.of_list (List.rev !units) in
    Obs.add co "sampled_nodes" (Array.length units);
    Built (ctx, c, units)

let estimate ?(jobs = 1) ?(obs = Obs.disabled) ?(trace = Trace.disabled)
    ?(config = default_config) g ~terminals =
  let cfg = config in
  (* Each consumed node becomes a stratum with its descent count. Nodes
     with a meaningful share of the budget use the textbook stratified
     estimator (deterministic allocation, weight [p_n]); the long tail
     of tiny nodes uses randomised rounding with weight [N_n / s'],
     whose expectation telescopes to [p_n * R_n] even when [N_n = 0].
     Both branches are exactly unbiased; the first avoids the
     allocation (rounding) variance where it would matter. Allocation
     draws stay on the construction stream; descent draws use the
     stratum's split stream. *)
  let unit_of rng ~s_cur ~pos st pn =
    let s_eff = max 1 s_cur in
    let mass = Xprob.to_float_approx pn in
    let x = float_of_int s_eff *. mass in
    if x >= 0.5 then
      Some (max 1 (int_of_float (Float.round x)), stratum rng ~pos st mass)
    else
      let n = alloc rng x in
      if n > 0 then
        Some (n, stratum rng ~pos st (float_of_int n /. float_of_int s_eff))
      else None
  in
  match build ~name:"S2bdd.estimate" ~obs ~trace cfg g ~terminals ~unit_of with
  | Trivial r -> r
  | Built (ctx, c, strata) ->
    let samples_drawn = Array.fold_left (fun acc (n, _) -> acc + n) 0 strata in
    (* Stratified descents: every stratum is an independent task; run
       them on [jobs] domains and fold the per-task contributions
       [weight * R^_n] in consumption order. *)
    let so = Obs.sub obs "sampling" in
    Obs.text so "estimator"
      (match cfg.estimator with Monte_carlo -> "mc" | Horvitz_thompson -> "ht");
    Obs.add so "descent_tasks" (Array.length strata);
    Obs.add so "samples" samples_drawn;
    let lanes = Par.effective_jobs jobs in
    let contribs =
      Par.run ~jobs (Array.length strata) (fun i ->
          let tr = Trace.task trace ~lane:(i mod lanes) in
          let ts = Trace.now tr in
          let t0 = Obs.now obs in
          let g0 = Obs.gc_begin so in
          let n, s = strata.(i) in
          let r_hat =
            match cfg.estimator with
            | Monte_carlo ->
              draw ctx s ~n;
              float_of_int s.sm_hits /. float_of_int n
            | Horvitz_thompson -> ht_r_hat ctx s ~n
          in
          Trace.complete tr ~ts "descent"
            ~args:[ ("task", Int i); ("n", Int n) ];
          (s.sm_weight *. r_hat, Obs.now obs -. t0, Obs.gc_end g0, tr))
    in
    let descent_secs = ref 0. in
    let contribution =
      Array.fold_left
        (fun acc (c, dt, gd, tr) ->
          Obs.record_span so "descent" dt;
          Obs.hist_seconds so "hist.descent_ns" dt;
          Obs.record_gc so "gc" gd;
          descent_secs := !descent_secs +. dt;
          Trace.merge ~into:trace tr;
          acc +. c)
        0. contribs
    in
    (* Kernel time over the descent tasks: summed per-task wall time
       (so the derived samples/sec reads as per-domain throughput),
       recorded as a monotonic-timer span; the samples_per_sec figure
       itself is derived at report time (Statsdoc), never stored. *)
    Obs.add so "kernel.samples" samples_drawn;
    Obs.record_span so "kernel.elapsed" !descent_secs;
    let lower = Xprob.to_float_approx c.c_pc in
    let raw = lower +. contribution in
    let r =
      construction_result cfg c ~value:raw ~samples_drawn
        ~sampled_nodes:(Array.length strata)
    in
    (* The raw contribution stays readable through Obs. *)
    if not r.exact then begin
      Obs.gauge so "contribution" contribution;
      if raw < r.lower || raw > r.upper then begin
        Obs.incr so "value_clamped";
        Obs.gauge so "raw_value" raw
      end
    end;
    r

let bounds ?(config = default_config) g ~terminals =
  match
    build ~name:"S2bdd.bounds" ~obs:Obs.disabled ~trace:Trace.disabled config g
      ~terminals ~unit_of:(fun _ ~s_cur:_ ~pos:_ _ _ -> None)
  with
  | Trivial r -> r
  | Built (_, c, _) -> unsampled_result config c

(* ------------------------------------------------------------------ *)
(* Adaptive sampling plans                                             *)
(* ------------------------------------------------------------------ *)

type plan = {
  p_ctx : F.ctx;
  p_construction : construction;
  p_strata : stratum array;
}

type prepared =
  | Exact of result  (* trivial, or construction resolved every node *)
  | Sampling of plan

let prepare ?(obs = Obs.disabled) ?(trace = Trace.disabled)
    ?(config = default_config) g ~terminals =
  (* Every consumed node becomes a stratum weighted by its mass; no
     allocation draws happen here — the adaptive driver decides budgets
     between rounds (Neyman allocation). *)
  let unit_of rng ~s_cur:_ ~pos st pn =
    Some (stratum rng ~pos st (Xprob.to_float_approx pn))
  in
  match
    build ~name:"S2bdd.prepare" ~obs ~trace config g ~terminals ~unit_of
  with
  | Trivial r -> Exact r
  | Built (_, c, [||]) -> Exact (unsampled_result config c)
  | Built (ctx, c, strata) ->
    Sampling { p_ctx = ctx; p_construction = c; p_strata = strata }

let plan_bounds p = proven p.p_construction
let n_strata p = Array.length p.p_strata
let stratum_mass p i = p.p_strata.(i).sm_weight
let stratum_pos p i = p.p_strata.(i).sm_pos
let stratum_drawn p i = p.p_strata.(i).sm_drawn
let stratum_hits p i = p.p_strata.(i).sm_hits

(* Distinct strata may be drawn concurrently (private stream, private
   counters, per-domain scratch); the {e same} stratum must not.
   Adaptive sampling always descends with the plain MC indicator — the
   HT within-node dedup needs the final per-node total up front, which
   an adaptive budget does not know. *)
let draw_stratum p i ~n =
  if n <= 0 then invalid_arg "S2bdd.draw_stratum: n <= 0";
  draw p.p_ctx p.p_strata.(i) ~n
