module P = Preprocess.Pipeline

type report = {
  value : float;
  lower : float;
  upper : float;
  exact : bool;
  s_given : int;
  s_reduced : int;
  samples_drawn : int;
  subresults : S2bdd.result list;
  preprocess : P.stats option;
}

(* [clamp] used to live here to repair out-of-bounds subresult values;
   S2bdd now clamps at the source, so the report takes them as-is. *)

(* Report-level convention: [s_reduced = 0] means "no sampling needed".
   The trivial paths state it directly; [combine] derives it — an exact
   run never consumed its residual budget, so reporting the unused
   Theorem-1 [s'] there would make a trivially-resolved run and a
   construction-resolved exact run read differently for the same
   situation. The per-subproblem [s'] values stay available unaltered
   in [subresults]. *)
let trivial_report cfg value =
  {
    value;
    lower = value;
    upper = value;
    exact = true;
    s_given = cfg.S2bdd.samples;
    s_reduced = 0;
    samples_drawn = 0;
    subresults = [];
    preprocess = None;
  }

let combine cfg ~pb ~stats subresults =
  let value, lower, upper, exact =
    List.fold_left
      (fun (v, lo, hi, ex) (r : S2bdd.result) ->
        (* [r.value] is clamped into [[r.lower, r.upper]] at the source
           (S2bdd), so the products nest: value stays within the
           combined bounds. *)
        ( v *. r.S2bdd.value,
          lo *. r.S2bdd.lower,
          hi *. r.S2bdd.upper,
          ex && r.S2bdd.exact ))
      (pb, pb, pb, true) subresults
  in
  {
    value;
    lower;
    upper;
    exact;
    s_given = cfg.S2bdd.samples;
    (* The binding residual budget: subproblems are independent, each
       with its own Theorem-1 budget, so the largest one dominates —
       unless the whole run resolved exactly, where no sampling was
       needed at all. *)
    s_reduced =
      if exact then 0
      else
        List.fold_left (fun acc (r : S2bdd.result) -> max acc r.S2bdd.s_reduced) 0 subresults;
    samples_drawn =
      List.fold_left
        (fun acc (r : S2bdd.result) -> acc + r.S2bdd.samples_drawn)
        0 subresults;
    subresults;
    preprocess = stats;
  }

(* Close the run with an "estimate" instant so traces (and the live
   reporter) always carry the final answer, whichever path produced
   it. *)
let emit_report trace (rep : report) =
  if Trace.enabled trace then
    Trace.instant trace "estimate"
      ~args:
        [
          ("value", Trace.Float rep.value);
          ("lower", Trace.Float rep.lower);
          ("upper", Trace.Float rep.upper);
          ("exact", Trace.Bool rep.exact);
          ("samples", Trace.Int rep.samples_drawn);
        ];
  rep

type subproblem = {
  graph : Ugraph.t;
  terminals : int list;
  config : S2bdd.config;
}

type split =
  | Resolved of float
  | Split of {
      pb : float;
      stats : P.stats option;
      subproblems : subproblem array;
    }

let split ?(obs = Obs.disabled) ?(trace = Trace.disabled)
    ?(config = S2bdd.default_config) ?(extension = true) ?prep ?orders g
    ~terminals =
  if not extension then
    let subproblems = [| { graph = g; terminals; config } |] in
    Split { pb = 1.; stats = None; subproblems }
  else
    (* [prep] short-circuits the pipeline with a previously computed
       outcome for the same (graph, terminals): the engine caches it
       across queries. Everything downstream — seed splitting, ordering,
       sampling — is a pure function of the outcome and [config], so a
       cached outcome yields bit-identical subproblems. *)
    let outcome =
      match prep with
      | Some o -> o
      | None -> P.run ~obs ~trace g ~terminals
    in
    match outcome with
    | P.Trivial r -> Resolved (Xprob.to_float_exn r)
    | P.Reduced { pb; subproblems; stats } ->
      (* Per-subproblem seeds are drawn sequentially from the master
         seed before any subproblem runs, so the seed assignment — and
         hence every subresult — is independent of execution order. A
         cached per-subproblem ordering (the engine computes the same
         [`Auto] BFS order once per (graph, terminals)) slots in as
         [`Explicit]; an equal array yields the identical construction. *)
      let seed_rng = Prng.create config.S2bdd.seed in
      let subproblems =
        Array.of_list subproblems
        |> Array.mapi (fun i (sp : P.subproblem) ->
               let seed = Int64.to_int (Prng.bits64 seed_rng) in
               let order =
                 match orders with
                 | Some os -> `Explicit os.(i)
                 | None -> config.S2bdd.order
               in
               { graph = sp.P.graph; terminals = sp.P.terminals;
                 config = { config with S2bdd.seed; order } })
      in
      Split { pb = Xprob.to_float_exn pb; stats = Some stats; subproblems }

let estimate ?(obs = Obs.disabled) ?(trace = Trace.disabled)
    ?(config = S2bdd.default_config) ?(extension = true) ?(jobs = 1) ?prep
    ?orders g ~terminals =
  if jobs < 1 then invalid_arg "Reliability.estimate: jobs < 1";
  let run ~obs ~trace sp =
    S2bdd.estimate ~jobs ~obs ~trace ~config:sp.config sp.graph
      ~terminals:sp.terminals
  in
  emit_report trace
  @@
  match split ~obs ~trace ~config ~extension ?prep ?orders g ~terminals with
  | Resolved v -> trivial_report config v
  | Split { pb; stats; subproblems = [| sp |] } when not extension ->
    (* The raw graph, instrumented in place. *)
    combine config ~pb ~stats [ run ~obs ~trace sp ]
  | Split { pb; stats; subproblems } ->
    (* The subproblems run as pool tasks (their descents nest on the
       same pool) with results collected in subproblem order. Each task
       records into its own observer ([Obs.fresh_like]) and its own
       trace buffer ([Trace.task], lane [i mod lanes]); both merge back
       in subproblem order, keeping the stats and the trace stream
       deterministic under any domain schedule. *)
    let sub_obs = Array.map (fun _ -> Obs.fresh_like obs) subproblems in
    let lanes = Par.effective_jobs jobs in
    let sub_trace =
      Array.mapi (fun i _ -> Trace.task trace ~lane:(i mod lanes)) subproblems
    in
    let subresults =
      Par.run ~jobs (Array.length subproblems) (fun i ->
          let sp = subproblems.(i) in
          Trace.span sub_trace.(i) "subproblem"
            ~args:
              [
                ("index", Trace.Int i);
                ("edges", Trace.Int (Ugraph.n_edges sp.graph));
              ]
          @@ fun () -> run ~obs:sub_obs.(i) ~trace:sub_trace.(i) sp)
      |> Array.to_list
    in
    Array.iter (fun so -> Obs.merge ~into:obs so) sub_obs;
    Array.iter (fun st -> Trace.merge ~into:trace st) sub_trace;
    combine config ~pb ~stats subresults

let exact ?node_budget ?extension g ~terminals =
  match split ?extension g ~terminals with
  | Resolved v -> Ok v
  | Split { pb; subproblems; _ } ->
    Array.fold_left
      (fun acc sp ->
        Result.bind acc (fun acc ->
            Bddbase.Exact.reliability_float ?node_budget sp.graph
              ~terminals:sp.terminals
            |> Result.map (fun r -> acc *. r)))
      (Ok pb) subproblems
