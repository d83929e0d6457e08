module J = Obs.Json

type run = {
  command : string;
  method_ : string;
  graph : string;
  terminals : int list;
  seed : int;
  jobs : int;
  samples : int;
  width : int;
}

let schema_version = 2

let required_keys =
  [
    "netrel"; "run"; "preprocess"; "construction"; "sampling"; "adaptive";
    "par"; "gc"; "result";
  ]

let phase rendered name =
  match J.member name rendered with Some v -> v | None -> J.Obj []

let result_of_report (r : Reliability.report) =
  J.Obj
    [
      ("value", J.Float r.value);
      ("lower", J.Float r.lower);
      ("upper", J.Float r.upper);
      ("exact", J.Bool r.exact);
      ("s_given", J.Int r.s_given);
      ("s_reduced", J.Int r.s_reduced);
      ("samples_drawn", J.Int r.samples_drawn);
      ("subproblems", J.Int (List.length r.subresults));
    ]

let result_of_estimate (e : Mcsampling.estimate) =
  let lower, upper = Mcsampling.interval e in
  J.Obj
    [
      ("value", J.Float e.value);
      ("lower", J.Float lower);
      ("upper", J.Float upper);
      ("samples_used", J.Int e.samples_used);
      ("hits", J.Int e.hits);
      ("distinct", J.Int e.distinct);
      ("variance_estimate", J.Float e.variance_estimate);
      ("jobs_used", J.Int e.jobs_used);
      ("chunks", J.Int (Array.length e.chunk_samples));
    ]

let result_value ~value ~exact =
  J.Obj [ ("value", J.Float value); ("exact", J.Bool exact) ]

let result_of_adaptive ~value ~lower ~upper ~exact ~ci_width ~target_width
    ~samples_used ~samples_planned ~rounds ~stop =
  J.Obj
    [
      ("value", J.Float value);
      ("lower", J.Float lower);
      ("upper", J.Float upper);
      ("exact", J.Bool exact);
      ("ci_width", J.Float ci_width);
      ("target_width", J.Float target_width);
      ("samples_used", J.Int samples_used);
      ("samples_planned", J.Int samples_planned);
      ("rounds", J.Int rounds);
      ("stop", J.Str stop);
    ]

let par_account obs f =
  let before = Par.counters () in
  let r = f () in
  if not (Obs.mem obs "par.batches") then begin
    let after = Par.counters () in
    Obs.add obs "par.batches" (after.Par.batches - before.Par.batches);
    Obs.add obs "par.tasks" (after.Par.tasks - before.Par.tasks)
  end;
  r

let build ~obs ~run ~seconds ~result =
  (* Throughput is derived here, at report time, from the summed
     monotonic kernel timer — the old mid-run gauge raced between
     chunks and whichever worker wrote last won. *)
  if Obs.mem obs "sampling.kernel.samples" then begin
    let samples =
      float_of_int (Obs.counter_value obs "sampling.kernel.samples")
    in
    let elapsed = Obs.timer_seconds obs "sampling.kernel.elapsed" in
    Obs.gauge obs "sampling.kernel.samples_per_sec"
      (if elapsed > 0. then samples /. elapsed else 0.)
  end;
  let rendered = Obs.to_json obs in
  J.Obj
    [
      ( "netrel",
        J.Obj
          [ ("emitter", J.Str "netrel"); ("schema", J.Int schema_version) ] );
      ( "run",
        J.Obj
          [
            ("command", J.Str run.command);
            ("method", J.Str run.method_);
            ("graph", J.Str run.graph);
            ("terminals", J.List (List.map (fun t -> J.Int t) run.terminals));
            ("seed", J.Int run.seed);
            ("jobs", J.Int run.jobs);
            ("samples", J.Int run.samples);
            ("width", J.Int run.width);
            ("seconds", J.Float seconds);
          ] );
      ("preprocess", phase rendered "preprocess");
      ("construction", phase rendered "construction");
      ("sampling", phase rendered "sampling");
      ("adaptive", phase rendered "adaptive");
      ("par", phase rendered "par");
      ("gc", phase rendered "gc");
      ("result", result);
    ]
