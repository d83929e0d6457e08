module R = Netrel.Reliability
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

let exact_result ~target_width ~lower ~upper value =
  {
    value;
    lower;
    upper;
    exact = true;
    ci_width = upper -. lower;
    target_width;
    samples_used = 0;
    samples_planned = 0;
    rounds = 0;
    stop = Exact_answer;
  }

(* Independent factors multiply (each lies in [[0, 1]]), starting from
   the probability [pb] the pipeline resolved. The product is exact
   when every factor is; otherwise a capped factor makes it capped. *)
let product ~target_width ~pb results =
  let r =
    Array.fold_left
      (fun a r ->
        {
          a with
          value = a.value *. r.value;
          lower = a.lower *. r.lower;
          upper = a.upper *. r.upper;
          exact = a.exact && r.exact;
          samples_used = a.samples_used + r.samples_used;
          samples_planned = a.samples_planned + r.samples_planned;
          rounds = a.rounds + r.rounds;
          stop =
            (if a.stop = Budget_exhausted || r.stop = Exact_answer then a.stop
             else r.stop);
        })
      (exact_result ~target_width ~lower:pb ~upper:pb pb)
      results
  in
  { r with ci_width = r.upper -. r.lower }

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

(* The one round loop of every driver. The driver supplies its current
   interval [width], its [next] round size (0 once the budget is
   spent) and [round i n]: for round [i] planned at [n], the size it
   actually draws, the draw, and the [adaptive.round] trace args given
   the width after the draw. Returns the stop reason, the rounds run
   and their total size. *)
let loop ~ao ~trace ~ci_width ~width ~next ~round =
  let rec go w rounds planned =
    if w <= ci_width then (Width_reached, rounds, planned)
    else
      match next () with
      | 0 -> (Budget_exhausted, rounds, planned)
      | n ->
        let ts = Trace.now trace in
        let size, draw, args = round (rounds + 1) n in
        (* Round-size distribution and per-round GC cost: the round
           schedule is a deterministic function of the observed hit
           counts, so the histogram is byte-stable for a fixed seed. *)
        Obs.hist ao "hist.round_size" size;
        Obs.gc_phase ao "gc" draw;
        let w = width () in
        if Trace.enabled trace then
          Trace.complete trace ~ts "adaptive.round" ~args:(args w);
        go w (rounds + 1) (planned + size)
  in
  go (width ()) 0 0

(* ------------------------------------------------------------------ *)
(* Plain samplers                                                      *)
(* ------------------------------------------------------------------ *)

(* The plain samplers' driver: validation, the trivial k < 2 answer,
   the snapshot the chunk stream samples, then rounds. [sampler csr]
   returns the stream's [draw], [samples], [hits] (the planner's
   input) and [estimate] (which prices the interval). *)
let plain ~obs ~trace ?csr ~max_samples g ~terminals ~ci_width sampler =
  validate ~ci_width ~max_samples;
  Ugraph.validate_terminals g terminals;
  let ao = Obs.sub obs "adaptive" in
  let r =
    if List.length terminals < 2 then
      exact_result ~target_width:ci_width ~lower:1. ~upper:1. 1.
    else
      let csr = match csr with Some c -> c | None -> Kernel.Csr.of_graph g in
      let draw, samples, hits, estimate = sampler csr in
      let width () =
        if samples () = 0 then infinity
        else
          let lower, upper = Mcsampling.interval (estimate ()) in
          upper -. lower
      in
      let next () =
        let drawn = samples () in
        (* [hits] may cost an estimate replay (HT) and is undefined before
           the first draw — only consult it once something was drawn. *)
        let hits = if drawn = 0 then 0 else hits () in
        next_round ~hits ~drawn ~width:ci_width ~max_samples
      in
      let round i n =
        ( n,
          (fun () -> draw n),
          fun width ->
            [
              ("round", Trace.Int i);
              ("planned", Trace.Int n);
              ("samples", Trace.Int (samples ()));
              ("width", Trace.Float width);
            ] )
      in
      let stop, rounds, planned =
        loop ~ao ~trace ~ci_width ~width ~next ~round
      in
      let e = estimate () in
      let lower, upper = Mcsampling.interval e in
      {
        value = Float.max 0. (Float.min 1. e.Mcsampling.value);
        lower;
        upper;
        exact = false;
        ci_width = upper -. lower;
        target_width = ci_width;
        samples_used = e.Mcsampling.samples_used;
        samples_planned = planned;
        rounds;
        stop;
      }
  in
  emit_result trace (finish_obs ao r)

let monte_carlo ?(obs = Obs.disabled) ?(trace = Trace.disabled) ?seed ?jobs
    ?kernel ?csr ?(max_samples = default_max_samples) g ~terminals ~ci_width =
  plain ~obs ~trace ?csr ~max_samples g ~terminals ~ci_width @@ fun csr ->
  let t = MC.mc_create ~obs ~trace ?seed ?jobs ?kernel csr ~terminals in
  ( (fun n -> MC.mc_draw t ~samples:n),
    (fun () -> MC.mc_samples t),
    (fun () -> MC.mc_hits t),
    fun () -> MC.mc_estimate t )

let horvitz_thompson ?(obs = Obs.disabled) ?(trace = Trace.disabled) ?seed
    ?jobs ?kernel ?csr ?(max_samples = default_max_samples) g ~terminals
    ~ci_width =
  plain ~obs ~trace ?csr ~max_samples g ~terminals ~ci_width @@ fun csr ->
  let t = MC.ht_create ~obs ~trace ?seed ?jobs ?kernel csr ~terminals in
  (* The HT planner reads hits as round(value * samples): the HT value
     is a weighted sum, not a count, but the planner only needs a
     smoothed variance proxy. *)
  let hits () =
    let e = MC.ht_estimate t in
    let v = Float.max 0. (Float.min 1. e.Mcsampling.value) in
    int_of_float (Float.round (v *. float_of_int e.Mcsampling.samples_used))
  in
  ( (fun n -> MC.ht_draw t ~samples:n),
    (fun () -> MC.ht_samples t),
    hits,
    fun () -> MC.ht_estimate t )

(* ------------------------------------------------------------------ *)
(* Stratified S2BDD plans (Neyman re-allocation)                       *)
(* ------------------------------------------------------------------ *)

(* How many per-stratum gauges a plan run records: real graphs can shed
   thousands of strata and the stats document must stay bounded. *)
let max_stratum_gauges = 16

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

(* One subproblem's plan through the loop. Its width is the
   [plan_interval] width: [upper - lower] before any draw. *)
let stratified ~jobs ~ao ~trace ~sub ~ci_width ~max_samples plan =
  let lower, upper = S2bdd.plan_bounds plan in
  let k = S2bdd.n_strata plan in
  let mass = Array.init k (S2bdd.stratum_mass plan) in
  let total_mass = Array.fold_left ( +. ) 0. mass in
  (* Plan against the width the Wilson part must reach once the mass
     scaling and the unsampled slack are taken out. *)
  let slack = Float.max 0. (upper -. lower -. total_mass) in
  let w_eff =
    if total_mass > 0. then (ci_width -. slack) /. total_mass else 0.
  in
  let width () =
    let lo, hi, _, _ = plan_interval plan in
    hi -. lo
  in
  let next () =
    let _, _, r_eff, drawn = plan_interval plan in
    if w_eff <= 0. then 0
    else
      next_round
        ~hits:(int_of_float (Float.round (r_eff *. float_of_int drawn)))
        ~drawn ~width:w_eff ~max_samples
  in
  let round i n =
    (* Round 1 is proportional-to-mass with every stratum covered
       (there is no variance signal yet); later rounds re-allocate by
       the observed Neyman weights. *)
    let alloc =
      if i = 1 then
        let n = max n k in
        Array.map (fun a -> a + 1) (apportion ~total:(n - k) mass)
      else apportion ~total:n (Array.init k (neyman_weight plan))
    in
    let targets =
      Array.of_list
        (List.filter (fun i -> alloc.(i) > 0) (List.init k (fun i -> i)))
    in
    (* Distinct strata only: safe to draw concurrently (each owns its
       stream, counters and scratch). *)
    let draw () =
      ignore
        (Par.run ~jobs (Array.length targets) (fun j ->
             let i = targets.(j) in
             S2bdd.draw_stratum plan i ~n:alloc.(i)))
    in
    let size = Array.fold_left ( + ) 0 alloc in
    ( size,
      draw,
      fun width ->
        [
          ("sub", Trace.Int sub);
          ("round", Trace.Int i);
          ("planned", Trace.Int size);
          ("strata", Trace.Int (Array.length targets));
          ("width", Trace.Float width);
        ] )
  in
  let stop, rounds, planned = loop ~ao ~trace ~ci_width ~width ~next ~round in
  let lo, hi, r_eff, drawn = plan_interval plan in
  for i = 0 to min k max_stratum_gauges - 1 do
    Obs.gauge ao
      (Printf.sprintf "stratum%d.drawn" i)
      (float_of_int (S2bdd.stratum_drawn plan i));
    Obs.gauge ao (Printf.sprintf "stratum%d.mass" i) mass.(i)
  done;
  (* Point value: the plan's own stratified estimate, pulled into the
     honest interval (they can disagree by sampling noise near the
     clamp boundaries). *)
  let value = Float.max lo (Float.min hi (lower +. (total_mass *. r_eff))) in
  {
    value;
    lower = lo;
    upper = hi;
    exact = false;
    ci_width = hi -. lo;
    target_width = ci_width;
    samples_used = drawn;
    samples_planned = planned;
    rounds;
    stop;
  }

let reliability ?(obs = Obs.disabled) ?(trace = Trace.disabled)
    ?(config = S2bdd.default_config) ?(extension = true) ?(jobs = 1) ?prep
    ?orders ?(max_samples = default_max_samples) g ~terminals ~ci_width =
  validate ~ci_width ~max_samples;
  if jobs < 1 then invalid_arg "Adaptive.reliability: jobs < 1";
  let ao = Obs.sub obs "adaptive" in
  let r =
    (* As in {!Reliability.estimate}: [prep] replays a cached pipeline
       outcome for the same (graph, terminals); the rounds that follow
       are a pure function of the outcome, config and seed. *)
    match R.split ~obs ~trace ~config ~extension ?prep ?orders g ~terminals with
    | R.Resolved v -> exact_result ~target_width:ci_width ~lower:v ~upper:v v
    | R.Split { pb; subproblems; _ } ->
      (* Constructions and rounds run sequentially per subproblem — the
         strata within a round are the parallel surface. Product-interval
         width is at most [pb * sum of sub widths] (all factors in
         [[0, 1]]), so an even split of the target over the subproblems
         is sufficient. *)
      let k_s = Array.length subproblems in
      let width =
        Float.min 1. (ci_width /. (pb *. float_of_int (max 1 k_s)))
      in
      let cap = max 1 (max_samples / max 1 k_s) in
      product ~target_width:ci_width ~pb
        (Array.mapi
           (fun i (sp : R.subproblem) ->
             match
               S2bdd.prepare ~obs ~trace ~config:sp.R.config sp.R.graph
                 ~terminals:sp.R.terminals
             with
             | S2bdd.Exact r ->
               exact_result ~target_width:width ~lower:r.S2bdd.lower
                 ~upper:r.S2bdd.upper r.S2bdd.value
             | S2bdd.Sampling plan ->
               stratified ~jobs ~ao ~trace ~sub:i ~ci_width:width
                 ~max_samples:cap plan)
           subproblems)
  in
  emit_result trace (finish_obs ao r)
