module P = Preprocess.Pipeline
module S2bdd = Netrel.S2bdd
module MC = Mcsampling.Chunked

type stop =
  | Width_reached
  | Budget_exhausted
  | Exact_answer

let stop_name = function
  | Width_reached -> "width-reached"
  | Budget_exhausted -> "max-samples"
  | Exact_answer -> "exact"

type result = {
  value : float;
  lower : float;
  upper : float;
  exact : bool;
  ci_width : float;
  target_width : float;
  samples_used : int;
  samples_planned : int;
  rounds : int;
  stop : stop;
  estimate : Mcsampling.estimate option;
}

let default_max_samples = 1_000_000

let validate ~ci_width ~max_samples =
  if not (Float.is_finite ci_width) || ci_width <= 0. || ci_width >= 1. then
    invalid_arg "Adaptive: ci_width must be in (0, 1)";
  if max_samples < 1 then invalid_arg "Adaptive: max_samples < 1"

(* Next-round size, a pure function of the account so far — the round
   schedule (and hence the whole run) is replayable from the seed. The
   required total comes from inverting the large-n Wilson width
   [2 z sqrt(p (1-p) / n) <= w] at the Agresti–Coull-smoothed
   proportion (the +2/+4 pseudo-counts keep 0-hit prefixes from
   planning an absurdly small budget). Growth is bounded both ways:
   at least one {!Mcsampling.chunk_target} chunk of progress per round
   (the plan can undershoot the actual Wilson width near the
   boundaries), at most 4x what was already drawn (a bad early [p^]
   must not commit the whole budget in one round). *)
let next_round ~hits ~drawn ~width ~max_samples =
  let remaining = max_samples - drawn in
  if remaining <= 0 then 0
  else if drawn = 0 then min Mcsampling.chunk_target remaining
  else begin
    let z = Relstats.default_z in
    let pt = (float_of_int hits +. 2.) /. (float_of_int drawn +. 4.) in
    let n_req =
      Float.ceil (4. *. z *. z *. pt *. (1. -. pt) /. (width *. width))
    in
    let need =
      if n_req >= float_of_int max_int then max_int - drawn
      else int_of_float n_req - drawn
    in
    let next = max Mcsampling.chunk_target (min need (4 * drawn)) in
    min next remaining
  end

(* Largest-remainder apportionment of [total] over non-negative
   [weights] (sum > 0): floors first, then one extra to the largest
   fractional parts, ties to the lower index — deterministic, exact
   sum. *)
let apportion ~total weights =
  let k = Array.length weights in
  let sum = Array.fold_left ( +. ) 0. weights in
  let shares =
    Array.map (fun w -> float_of_int total *. w /. sum) weights
  in
  let out = Array.map (fun s -> int_of_float (Float.floor s)) shares in
  let rem = total - Array.fold_left ( + ) 0 out in
  let idx = Array.init k (fun i -> i) in
  Array.sort
    (fun a b ->
      let fa = shares.(a) -. Float.floor shares.(a)
      and fb = shares.(b) -. Float.floor shares.(b) in
      if fa = fb then compare a b else Float.compare fb fa)
    idx;
  for j = 0 to rem - 1 do
    let i = idx.(j) in
    out.(i) <- out.(i) + 1
  done;
  out

let trivial ~target_width value =
  {
    value;
    lower = value;
    upper = value;
    exact = true;
    ci_width = 0.;
    target_width;
    samples_used = 0;
    samples_planned = 0;
    rounds = 0;
    stop = Exact_answer;
    estimate = None;
  }

let finish_obs ao r =
  Obs.add ao "rounds" r.rounds;
  Obs.add ao "samples_planned" r.samples_planned;
  Obs.add ao "samples_used" r.samples_used;
  Obs.gauge ao "ci_width" r.ci_width;
  Obs.gauge ao "target_width" r.target_width;
  Obs.text ao "stop" (stop_name r.stop);
  Obs.incr ao ("stop_" ^ stop_name r.stop);
  r

let emit_result trace r =
  if Trace.enabled trace then
    Trace.instant trace "adaptive.done"
      ~args:
        [
          ("value", Trace.Float r.value);
          ("lower", Trace.Float r.lower);
          ("upper", Trace.Float r.upper);
          ("width", Trace.Float r.ci_width);
          ("rounds", Trace.Int r.rounds);
          ("samples", Trace.Int r.samples_used);
          ("stop", Trace.Str (stop_name r.stop));
        ];
  r

(* ------------------------------------------------------------------ *)
(* Plain samplers                                                      *)
(* ------------------------------------------------------------------ *)

(* One sequential-stopping loop shared by MC and HT: [hits]/[samples]
   feed the planner, [estimate] prices the current interval. *)
let sampler_loop ~ao ~trace ~ci_width ~max_samples ~draw ~samples ~hits
    ~estimate =
  let rounds = ref 0 in
  let planned = ref 0 in
  let finished = ref None in
  while !finished = None do
    let drawn = samples () in
    (* [hits] may cost an estimate replay (HT) and is undefined before
       the first draw — only consult it once something was drawn. *)
    let h = if drawn = 0 then 0 else hits () in
    let next = next_round ~hits:h ~drawn ~width:ci_width ~max_samples in
    if next = 0 then finished := Some Budget_exhausted
    else begin
      let ts = Trace.now trace in
      (* Round-size distribution and per-round GC cost: the round
         schedule is a deterministic function of the observed hit
         counts, so the histogram is byte-stable for a fixed seed. *)
      Obs.hist ao "hist.round_size" next;
      Obs.gc_phase ao "gc" (fun () -> draw next);
      incr rounds;
      planned := !planned + next;
      let e = estimate () in
      let lower, upper = Mcsampling.interval e in
      let width = upper -. lower in
      if Trace.enabled trace then
        Trace.complete trace ~ts "adaptive.round"
          ~args:
            [
              ("round", Trace.Int !rounds);
              ("planned", Trace.Int next);
              ("samples", Trace.Int (samples ()));
              ("width", Trace.Float width);
            ];
      if width <= ci_width then finished := Some Width_reached
    end
  done;
  let stop = Option.get !finished in
  let e = estimate () in
  let lower, upper = Mcsampling.interval e in
  finish_obs ao
    {
      value = Float.max 0. (Float.min 1. e.Mcsampling.value);
      lower;
      upper;
      exact = false;
      ci_width = upper -. lower;
      target_width = ci_width;
      samples_used = e.Mcsampling.samples_used;
      samples_planned = !planned;
      rounds = !rounds;
      stop;
      estimate = Some e;
    }

(* Shared prologue of the plain samplers: validation, the trivial k < 2
   answer, and the snapshot the chunk stream samples. *)
let plain ~obs ~trace ?csr ~max_samples g ~terminals ~ci_width run =
  validate ~ci_width ~max_samples;
  Ugraph.validate_terminals g terminals;
  let ao = Obs.sub obs "adaptive" in
  if List.length terminals < 2 then
    emit_result trace (finish_obs ao (trivial ~target_width:ci_width 1.))
  else
    let csr = match csr with Some c -> c | None -> Kernel.Csr.of_graph g in
    emit_result trace (run ~ao csr)

let monte_carlo ?(obs = Obs.disabled) ?(trace = Trace.disabled) ?seed ?jobs
    ?kernel ?csr ?(max_samples = default_max_samples) g ~terminals ~ci_width =
  plain ~obs ~trace ?csr ~max_samples g ~terminals ~ci_width @@ fun ~ao csr ->
  let t = MC.mc_create ~obs ~trace ?seed ?jobs ?kernel csr ~terminals in
  sampler_loop ~ao ~trace ~ci_width ~max_samples
    ~draw:(fun n -> MC.mc_draw t ~samples:n)
    ~samples:(fun () -> MC.mc_samples t)
    ~hits:(fun () -> MC.mc_hits t)
    ~estimate:(fun () -> MC.mc_estimate t)

let horvitz_thompson ?(obs = Obs.disabled) ?(trace = Trace.disabled) ?seed
    ?jobs ?kernel ?csr ?(max_samples = default_max_samples) g ~terminals
    ~ci_width =
  plain ~obs ~trace ?csr ~max_samples g ~terminals ~ci_width @@ fun ~ao csr ->
  let t = MC.ht_create ~obs ~trace ?seed ?jobs ?kernel csr ~terminals in
  (* The HT planner reads hits as round(value * samples): the HT value
     is a weighted sum, not a count, but the planner only needs a
     smoothed variance proxy. *)
  let hits () =
    let e = MC.ht_estimate t in
    let v = Float.max 0. (Float.min 1. e.Mcsampling.value) in
    int_of_float (Float.round (v *. float_of_int e.Mcsampling.samples_used))
  in
  sampler_loop ~ao ~trace ~ci_width ~max_samples
    ~draw:(fun n -> MC.ht_draw t ~samples:n)
    ~samples:(fun () -> MC.ht_samples t)
    ~hits
    ~estimate:(fun () -> MC.ht_estimate t)

(* ------------------------------------------------------------------ *)
(* Stratified S2BDD plans (Neyman re-allocation)                       *)
(* ------------------------------------------------------------------ *)

(* How many per-stratum gauges a plan run records: real graphs can shed
   thousands of strata and the stats document must stay bounded. *)
let max_stratum_gauges = 16

type plan_outcome = {
  po_value : float;
  po_lower : float;
  po_upper : float;
  po_exact : bool;
  po_samples : int;
  po_planned : int;
  po_rounds : int;
  po_stop : stop;
}

let outcome_of_exact (r : S2bdd.result) =
  {
    po_value = r.S2bdd.value;
    po_lower = r.S2bdd.lower;
    po_upper = r.S2bdd.upper;
    po_exact = true;
    po_samples = 0;
    po_planned = 0;
    po_rounds = 0;
    po_stop = Exact_answer;
  }

(* The honest interval of a partially sampled plan. Let
   [U = upper - lower] be the unresolved mass and [Us] the mass the
   strata actually carry ([U - Us] is float slack, clamped at 0). The
   proportionally weighted pooled proportion
   [r^ = sum_i (mass_i / Us) * hits_i / drawn_i] estimates the connected
   fraction of the sampled mass; a Wilson interval on [(r^, N)] scaled
   by [Us] then brackets the sampled mass's contribution at least as
   conservatively as the true stratified variance would (proportional
   stratification never has more variance than one binomial of the same
   [N] — variance decomposition drops the between-strata term). Any
   unsampled slack counts fully against the upper bound. *)
let plan_interval plan =
  let lower, upper = S2bdd.plan_bounds plan in
  let k = S2bdd.n_strata plan in
  let us = ref 0. and n = ref 0 and r_eff = ref 0. in
  for i = 0 to k - 1 do
    us := !us +. S2bdd.stratum_mass plan i;
    n := !n + S2bdd.stratum_drawn plan i
  done;
  if !us > 0. then
    for i = 0 to k - 1 do
      let d = S2bdd.stratum_drawn plan i in
      if d > 0 then
        r_eff :=
          !r_eff
          +. S2bdd.stratum_mass plan i /. !us
             *. (float_of_int (S2bdd.stratum_hits plan i) /. float_of_int d)
    done;
  let slack = Float.max 0. (upper -. lower -. !us) in
  if !n = 0 then (lower, upper, !r_eff, !n)
  else begin
    let wl, wu = Relstats.interval Relstats.Wilson ~phat:!r_eff ~n:!n in
    let lo = lower +. (!us *. wl) in
    let hi = Float.min upper (lower +. (!us *. wu) +. slack) in
    (lo, Float.max lo hi, !r_eff, !n)
  end

(* Per-stratum Neyman weight [mass_i * sigma^_i] with the half-count
   smoothed binomial spread — strictly positive, so every stratum keeps
   a nonzero chance of further refinement even after an all-miss or
   all-hit prefix. *)
let neyman_weight plan i =
  let n = float_of_int (S2bdd.stratum_drawn plan i) in
  let h = float_of_int (S2bdd.stratum_hits plan i) in
  let sigma = sqrt ((h +. 0.5) *. (n -. h +. 0.5)) /. (n +. 1.) in
  S2bdd.stratum_mass plan i *. sigma

let run_plan ?pool ~ao ~trace ~sub ~ci_width ~max_samples plan =
  let lower, upper = S2bdd.plan_bounds plan in
  let k = S2bdd.n_strata plan in
  let total_mass = ref 0. in
  for i = 0 to k - 1 do
    total_mass := !total_mass +. S2bdd.stratum_mass plan i
  done;
  let rounds = ref 0 in
  let planned = ref 0 in
  let finished = ref None in
  if upper -. lower <= ci_width then finished := Some Width_reached;
  while !finished = None do
    let _, _, r_eff, drawn = plan_interval plan in
    (* Plan against the width the Wilson part must reach once the
       mass scaling and the unsampled slack are taken out. *)
    let slack = Float.max 0. (upper -. lower -. !total_mass) in
    let w_eff =
      if !total_mass > 0. then (ci_width -. slack) /. !total_mass else 0.
    in
    let next =
      if w_eff <= 0. then 0
      else
        next_round
          ~hits:(int_of_float (Float.round (r_eff *. float_of_int drawn)))
          ~drawn ~width:w_eff ~max_samples
    in
    if next = 0 then finished := Some Budget_exhausted
    else begin
      let ts = Trace.now trace in
      (* Round 1 is proportional-to-mass with every stratum covered
         (there is no variance signal yet); later rounds re-allocate by
         the observed Neyman weights. *)
      let alloc =
        if !rounds = 0 then begin
          let next = max next k in
          let base =
            apportion ~total:(next - k)
              (Array.init k (fun i -> S2bdd.stratum_mass plan i))
          in
          Array.map (fun n -> n + 1) base
        end
        else apportion ~total:next (Array.init k (fun i -> neyman_weight plan i))
      in
      let this_round = Array.fold_left ( + ) 0 alloc in
      let targets =
        Array.of_list
          (List.filter (fun i -> alloc.(i) > 0) (List.init k (fun i -> i)))
      in
      Obs.hist ao "hist.round_size" this_round;
      (* Distinct strata only: safe to draw concurrently (each owns its
         stream, counters and scratch). *)
      Obs.gc_phase ao "gc" (fun () ->
          ignore
            (Par.run ?pool (Array.length targets) (fun j ->
                 let i = targets.(j) in
                 S2bdd.draw_stratum plan i ~n:alloc.(i))));
      incr rounds;
      planned := !planned + this_round;
      let lo, hi, _, _ = plan_interval plan in
      let width = hi -. lo in
      if Trace.enabled trace then
        Trace.complete trace ~ts "adaptive.round"
          ~args:
            [
              ("sub", Trace.Int sub);
              ("round", Trace.Int !rounds);
              ("planned", Trace.Int this_round);
              ("strata", Trace.Int (Array.length targets));
              ("width", Trace.Float width);
            ];
      if width <= ci_width then finished := Some Width_reached
    end
  done;
  let lo, hi, _, drawn = plan_interval plan in
  for i = 0 to min k max_stratum_gauges - 1 do
    Obs.gauge ao
      (Printf.sprintf "stratum%d.drawn" i)
      (float_of_int (S2bdd.stratum_drawn plan i));
    Obs.gauge ao
      (Printf.sprintf "stratum%d.mass" i)
      (S2bdd.stratum_mass plan i)
  done;
  (* Point value: the plan's own stratified estimate, pulled into the
     honest interval (they can disagree by sampling noise near the
     clamp boundaries). *)
  let value =
    let _, _, r_eff, _ = plan_interval plan in
    let v = lower +. (!total_mass *. r_eff) in
    Float.max lo (Float.min hi v)
  in
  {
    po_value = value;
    po_lower = lo;
    po_upper = hi;
    po_exact = false;
    po_samples = drawn;
    po_planned = !planned;
    po_rounds = !rounds;
    po_stop = Option.get !finished;
  }

let combine_outcomes ~target_width ~pb outcomes =
  let value, lower, upper, exact =
    Array.fold_left
      (fun (v, lo, hi, ex) o ->
        (v *. o.po_value, lo *. o.po_lower, hi *. o.po_upper, ex && o.po_exact))
      (pb, pb, pb, true) outcomes
  in
  let samples = Array.fold_left (fun a o -> a + o.po_samples) 0 outcomes in
  let planned = Array.fold_left (fun a o -> a + o.po_planned) 0 outcomes in
  let rounds = Array.fold_left (fun a o -> a + o.po_rounds) 0 outcomes in
  let stop =
    if exact then Exact_answer
    else if Array.exists (fun o -> o.po_stop = Budget_exhausted) outcomes then
      Budget_exhausted
    else Width_reached
  in
  {
    value;
    lower;
    upper;
    exact;
    ci_width = upper -. lower;
    target_width;
    samples_used = samples;
    samples_planned = planned;
    rounds;
    stop;
    estimate = None;
  }

let reliability ?(obs = Obs.disabled) ?(trace = Trace.disabled)
    ?(config = S2bdd.default_config) ?(extension = true) ?(jobs = 1) ?prep
    ?orders ?(max_samples = default_max_samples) g ~terminals ~ci_width =
  validate ~ci_width ~max_samples;
  if jobs < 1 then invalid_arg "Adaptive.reliability: jobs < 1";
  let ejobs = Par.effective_jobs jobs in
  let pool = if ejobs > 1 then Some (Par.Pool.shared ~jobs:ejobs) else None in
  let ao = Obs.sub obs "adaptive" in
  let run_sub ~sub ~obs ~trace ~width ~cap cfg sg sterminals =
    match S2bdd.prepare ~obs ~trace ~config:cfg sg ~terminals:sterminals with
    | S2bdd.Exact r -> outcome_of_exact r
    | S2bdd.Sampling plan ->
      run_plan ?pool ~ao ~trace ~sub ~ci_width:width ~max_samples:cap plan
  in
  let result =
    if extension then begin
      (* As in {!Reliability.estimate}: [prep] replays a cached pipeline
         outcome for the same (graph, terminals); the rounds that follow
         are a pure function of the outcome, config and seed. *)
      let outcome =
        match prep with
        | Some o -> o
        | None -> P.run ~obs ~trace g ~terminals
      in
      match outcome with
      | P.Trivial r ->
        finish_obs ao (trivial ~target_width:ci_width (Xprob.to_float_exn r))
      | P.Reduced { pb; subproblems; stats = _ } ->
        (* Seeds are drawn before any subproblem runs (order
           independence, as in {!Reliability.estimate}). Constructions
           and rounds run sequentially per subproblem — the strata
           within a round are the parallel surface. *)
        let pbf = Xprob.to_float_exn pb in
        let seed_rng = Prng.create config.S2bdd.seed in
        let sub_arr = Array.of_list subproblems in
        let seeds =
          Array.map (fun _ -> Int64.to_int (Prng.bits64 seed_rng)) sub_arr
        in
        let k_s = Array.length sub_arr in
        (* Product-interval width is at most [pb * sum of sub widths]
           (all factors in [[0, 1]]), so an even split of the target
           over the subproblems is sufficient. *)
        let width =
          Float.min 1. (ci_width /. (pbf *. float_of_int (max 1 k_s)))
        in
        let cap = max 1 (max_samples / max 1 k_s) in
        let outcomes =
          Array.mapi
            (fun i (sp : P.subproblem) ->
              let cfg = { config with S2bdd.seed = seeds.(i) } in
              let cfg =
                match orders with
                | Some os -> { cfg with S2bdd.order = `Explicit os.(i) }
                | None -> cfg
              in
              run_sub ~sub:i ~obs ~trace ~width ~cap cfg sp.P.graph
                sp.P.terminals)
            sub_arr
        in
        finish_obs ao (combine_outcomes ~target_width:ci_width ~pb:pbf outcomes)
    end
    else
      let o =
        run_sub ~sub:0 ~obs ~trace ~width:ci_width ~cap:max_samples config g
          terminals
      in
      finish_obs ao (combine_outcomes ~target_width:ci_width ~pb:1. [| o |])
  in
  emit_result trace result
