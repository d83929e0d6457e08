(* netrel: command-line front end.

   Subcommands:
     estimate    approximate / exact network reliability of a graph
     stats       dataset statistics (Table 2 columns)
     preprocess  show the extension technique's reduction
     gen         emit a built-in synthetic dataset as an edge-list file *)

open Cmdliner
module D = Workload.Datasets
module R = Netrel.Reliability
module P = Preprocess.Pipeline

(* ---- graph sources ---- *)

let dataset_by_name name ~seed ~scale =
  match String.lowercase_ascii name with
  | "karate" -> Some (D.karate ~seed ())
  | "am-rv" | "amrv" | "am_rv" -> Some (D.am_rv ~seed ())
  | "dblp1" -> Some (D.dblp1 ~seed ~scale ())
  | "dblp2" -> Some (D.dblp2 ~seed ~scale ())
  | "tokyo" -> Some (D.tokyo ~seed ~scale ())
  | "nyc" -> Some (D.nyc ~seed ~scale ())
  | "hit-d" | "hitd" | "hit_direct" | "hit-direct" -> Some (D.hit_direct ~seed ~scale ())
  | _ -> None

let dataset_names = "karate, am-rv, dblp1, dblp2, tokyo, nyc, hit-d"

(* [--graph FILE] sniffs the 8-byte Bingraph magic, so binary
   containers work everywhere a text edge list does. For binary files
   the header digest rides along (third component) — the engine
   commands pass it to [Engine.query] and skip the O(m) re-hash.
   [Bingraph.to_graph] checks the mapped edges as it builds the graph,
   so each load reads them once. *)
let load_graph_full ~file ~dataset ~seed ~scale =
  match (file, dataset) with
  | Some path, None ->
    if Bingraph.is_binary_file path then begin
      let bg = Bingraph.load path in
      Ok (Bingraph.to_graph bg, Filename.basename path, Some (Bingraph.digest bg))
    end
    else Ok (Ugraph.of_file path, Filename.basename path, None)
  | None, Some name -> (
    match dataset_by_name name ~seed ~scale with
    | Some d -> Ok (d.D.graph, d.D.abbr, None)
    | None ->
      Error (Printf.sprintf "unknown dataset %S (known: %s)" name dataset_names))
  | Some _, Some _ -> Error "--graph and --dataset are mutually exclusive"
  | None, None -> Error "one of --graph FILE or --dataset NAME is required"

let load_graph ~file ~dataset ~seed ~scale =
  Result.map (fun (g, name, _) -> (g, name)) (load_graph_full ~file ~dataset ~seed ~scale)

(* The elapsed time a report prints, on the clock the stats documents
   and traces read: under NETREL_FAKE_CLOCK it is 0, so the whole
   human-readable report is as byte-stable as they are. *)
let timed f =
  let clock = Obs.default_clock () in
  let t0 = clock () in
  let x = f () in
  (x, Float.max 0. (clock () -. t0))

(* ---- shared options ---- *)

let graph_file =
  let doc = "Read the uncertain graph from $(docv) (edge-list format: first \
             data line is the vertex count, then `u v p` lines)." in
  Arg.(value & opt (some file) None & info [ "g"; "graph" ] ~docv:"FILE" ~doc)

let dataset_arg =
  let doc = Printf.sprintf "Use a built-in synthetic dataset: %s." dataset_names in
  Arg.(value & opt (some string) None & info [ "d"; "dataset" ] ~docv:"NAME" ~doc)

let verbose_arg =
  let doc = "Show live run progress on stderr (alias for $(b,--progress))." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let progress_arg =
  let doc = "Render a live convergence line on stderr: current phase, \
             running estimate with its 95% CI half-width, samples drawn \
             (and rate), HT dedup ratio, construction layer/width." in
  Arg.(value & flag & info [ "progress" ] ~doc)

let trace_arg =
  let doc = "Stream structured trace events (spans, instants, counters \
             over preprocessing, S2BDD layers, descents and sampler \
             chunks, one lane per domain) and write them to $(docv) on \
             exit — also on error exits, so partial traces stay valid." in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let trace_format_arg =
  let doc = "Trace file format: $(b,chrome) (Chrome trace-event JSON, \
             loadable in Perfetto or chrome://tracing; default) or \
             $(b,jsonl) (a header line plus one JSON object per event)." in
  Arg.(value
       & opt (enum [ ("chrome", `Chrome); ("jsonl", `Jsonl) ]) `Chrome
       & info [ "trace-format" ] ~docv:"FMT" ~doc)

let seed_arg =
  let doc = "Master random seed (graphs, terminals and sampling are all \
             deterministic in it)." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"INT" ~doc)

let scale_arg =
  let doc = "Scale factor for built-in datasets (1.0 is the library default, \
             already ~10-20x below the paper's sizes)." in
  Arg.(value & opt float 1.0 & info [ "scale" ] ~docv:"FLOAT" ~doc)

let terminals_arg =
  let doc = "Comma-separated terminal vertex ids, e.g. $(b,0,5,9)." in
  Arg.(value & opt (some string) None & info [ "t"; "terminals" ] ~docv:"IDS" ~doc)

let jobs_arg =
  let doc = "Number of domains (cores) used for sampling. Estimates are \
             bit-identical at every value — $(docv) trades wall-clock for \
             cores, nothing else. Default: the machine's domain count." in
  Arg.(value & opt int (Par.default_jobs ()) & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let k_arg =
  let doc = "Pick $(docv) terminals uniformly at random instead of \
             --terminals." in
  Arg.(value & opt (some int) None & info [ "k" ] ~docv:"K" ~doc)

(* A comma-separated vertex id list ([--terminals], [--sources]),
   validated here, not deep in the library: out-of-range or duplicate
   ids otherwise surface as obscure failures several layers down, or
   only after the sampling they were meant to steer. *)
let parse_ids g ~flag s =
  let n = Ugraph.n_vertices g in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest -> (
      match int_of_string_opt x with
      | None ->
        Error
          (Printf.sprintf
             "could not parse %s: %S is not a vertex id (expected e.g. 0,5,9)"
             flag x)
      | Some t when t < 0 || t >= n ->
        Error (Printf.sprintf "%s: vertex %d outside [0,%d)" flag t n)
      | Some t when List.mem t acc ->
        Error (Printf.sprintf "%s: duplicate vertex %d" flag t)
      | Some t -> go (t :: acc) rest)
  in
  go [] (String.split_on_char ',' s |> List.map String.trim)

let parse_terminals g ~terminals ~k ~seed =
  match (terminals, k) with
  | Some s, None -> parse_ids g ~flag:"--terminals" s
  | None, Some k -> Ok (Workload.Generators.random_terminals ~seed g ~k)
  | Some _, Some _ -> Error "--terminals and -k are mutually exclusive"
  | None, None -> Error "one of --terminals IDS or -k K is required"

let or_die = function
  | Ok x -> x
  | Error msg ->
    Printf.eprintf "netrel: %s\n" msg;
    exit 2

let check_jobs jobs =
  if jobs < 1 then
    or_die (Error (Printf.sprintf "--jobs must be >= 1 (got %d)" jobs))

let check_samples samples =
  if samples < 1 then
    or_die (Error (Printf.sprintf "--samples must be >= 1 (got %d)" samples))

(* Turn library precondition failures into clean CLI errors. *)
let guarded f =
  try f ()
  with Invalid_argument msg | Failure msg ->
    Printf.eprintf "netrel: %s\n" msg;
    exit 2

(* Every bad input exits 2, flags included: the entry point at the end
   maps cmdliner's own code for a flag it cannot parse (124) to 2. *)
let exits =
  Cmd.Exit.
    [
      info 0 ~doc:"on success.";
      info 1 ~doc:"on a failing $(b,selfcheck) or $(b,benchdiff) verdict.";
      info 2 ~doc:"on bad input, command-line flags included.";
      info internal_error ~doc:"on unexpected internal errors (bugs).";
    ]

(* ---- estimate ---- *)

(* The engine's methods go through its one dispatch; the two exact
   baselines stay CLI-local. *)
type method_ = Engine_method of Engine.method_ | Bdd | Brute

let method_label = function
  | Engine_method m -> Engine.method_name m
  | Bdd -> "bdd"
  | Brute -> "brute"

let method_conv =
  let parse s =
    match (Engine.method_of_name s, String.lowercase_ascii s) with
    | Some m, _ -> Ok (Engine_method m)
    | None, "bdd" -> Ok Bdd
    | None, "brute" -> Ok Brute
    | None, _ -> Error (`Msg (Printf.sprintf "unknown method %S" s))
  in
  Arg.conv (parse, fun fmt m -> Format.pp_print_string fmt (method_label m))

let kernel_arg =
  let doc = "Sampling draw kernel for $(b,sampling-mc) / $(b,sampling-ht): \
             $(b,flat) (scalar draw, default) or $(b,bitsliced) \
             (word-parallel, 62 worlds per pass). Either kernel is \
             bit-identical to itself at every --jobs value, but the two \
             consume the seed's random streams differently, so estimates \
             agree statistically — not byte-for-byte — across kernels. \
             Ignored by the other methods." in
  Arg.(value
       & opt
           (enum
              (List.map
                 (fun k -> (Mcsampling.kernel_mode_name k, k))
                 Mcsampling.kernel_modes))
           Mcsampling.Flat
       & info [ "kernel" ] ~docv:"KERNEL" ~doc)

(* One estimate run, before rendering. *)
type outcome =
  | Dispatched of Engine.outcome
  | Bdd_exact of (float, Bddbase.Exact.error) result
  | Brute_exact of float

(* The [result] section of the stats document. *)
let result_doc = function
  | Dispatched o -> Engine.result_json o
  | Bdd_exact (Ok r) | Brute_exact r ->
    Netrel.Statsdoc.result_value ~value:r ~exact:true
  | Bdd_exact (Error (`Node_budget_exceeded n)) ->
    Obs.Json.Obj
      [ ("error", Obs.Json.Str "node_budget_exceeded");
        ("nodes", Obs.Json.Int n) ]

(* The human-readable report. *)
let print_report g out dt =
  let time = Relstats.format_seconds dt in
  match out with
  | Dispatched (Engine.Stopped r) ->
    Printf.printf
      "R = %.10g%s\nci95 = [%.10g, %.10g]  (width %.4g, target %.4g)\n"
      r.Adaptive.value
      (if r.Adaptive.exact then "  (exact)" else "")
      r.Adaptive.lower r.Adaptive.upper r.Adaptive.ci_width
      r.Adaptive.target_width;
    Printf.printf "adaptive: %d samples in %d rounds, stop = %s\n"
      r.Adaptive.samples_used r.Adaptive.rounds
      (Adaptive.stop_name r.Adaptive.stop);
    Printf.printf "time: %s\n" time
  | Dispatched (Engine.Report rep) ->
    Printf.printf "R = %.10g%s\nbounds = [%.10g, %.10g]\n" rep.R.value
      (if rep.R.exact then "  (exact)" else "")
      rep.R.lower rep.R.upper;
    Printf.printf "budget: s = %d -> s' = %d, %d descents drawn\n"
      rep.R.s_given rep.R.s_reduced rep.R.samples_drawn;
    Printf.printf "time: %s\n" time
  | Dispatched (Engine.Sampled est) ->
    Printf.printf "R = %.10g  (%d samples, %d hits)\ntime: %s\n"
      est.Mcsampling.value est.Mcsampling.samples_used est.Mcsampling.hits time
  | Bdd_exact (Ok r) -> Printf.printf "R = %.10g  (exact)\ntime: %s\n" r time
  | Bdd_exact (Error (`Node_budget_exceeded n)) ->
    Printf.printf "DNF: BDD node budget exceeded at %d nodes (%s)\n" n time
  | Brute_exact r ->
    Printf.printf "R = %.10g  (exhaustive over 2^%d possible graphs)\ntime: %s\n"
      r (Ugraph.n_edges g) time

(* One stats document ([--stats json], batch, serve): run metadata from
   the query record, phase sections from [obs]. *)
let stats_doc ~command ~graph_name ~method_name (q : Engine.query) ~obs
    ~seconds ~result =
  let module SD = Netrel.Statsdoc in
  let run_meta =
    { SD.command; method_ = method_name; graph = graph_name;
      terminals = q.Engine.terminals; seed = q.Engine.seed;
      jobs = Par.effective_jobs q.Engine.jobs; samples = q.Engine.samples;
      width = q.Engine.width }
  in
  SD.build ~obs ~run:run_meta ~seconds ~result

let estimate_cmd =
  let samples =
    let doc = "Plain-sampling budget $(docv) to match (Theorem 1 reduces it)." in
    Arg.(value & opt int 10_000 & info [ "s"; "samples" ] ~docv:"S" ~doc)
  in
  let width =
    let doc = "Maximum S2BDD layer width $(docv)." in
    Arg.(value & opt int 10_000 & info [ "w"; "width" ] ~docv:"W" ~doc)
  in
  let ht =
    let doc = "Use the Horvitz-Thompson estimator instead of Monte Carlo." in
    Arg.(value & flag & info [ "ht" ] ~doc)
  in
  let no_ext =
    let doc = "Disable the extension technique (prune/decompose/transform)." in
    Arg.(value & flag & info [ "no-extension" ] ~doc)
  in
  let ci_width =
    let doc = "Adaptive sequential stopping: instead of a fixed --samples \
               budget, draw sampling rounds until the 95% confidence \
               interval (Wilson score) is at most $(docv) wide or \
               --max-samples trips. Applies to $(b,pro), $(b,sampling-mc) \
               and $(b,sampling-ht); the round schedule is deterministic in \
               the seed, so results stay bit-identical at every --jobs \
               value." in
    Arg.(value & opt (some float) None
         & info [ "ci-width" ] ~docv:"WIDTH" ~doc)
  in
  let max_samples =
    let doc = "Hard sample cap for a --ci-width run (default 1000000)." in
    Arg.(value & opt (some int) None
         & info [ "max-samples" ] ~docv:"N" ~doc)
  in
  let method_ =
    let doc = "Computation method: $(b,pro) (the paper's approach, default), \
               $(b,sampling-mc), $(b,sampling-ht), $(b,bdd) (exact baseline), \
               $(b,brute) (exhaustive, tiny graphs only)." in
    Arg.(value & opt method_conv (Engine_method Engine.Pro)
         & info [ "m"; "method" ] ~docv:"METHOD" ~doc)
  in
  let stats_fmt =
    let doc = "Emit machine-readable per-phase run statistics instead of the \
               human-readable report: $(docv) is $(b,none) (default) or \
               $(b,json) (one JSON document on stdout: run metadata, \
               preprocess / construction / sampling / par phase accounts, \
               result)." in
    Arg.(value & opt (enum [ ("none", `None); ("json", `Json) ]) `None
         & info [ "stats" ] ~docv:"FORMAT" ~doc)
  in
  let run verbose file dataset seed scale terminals k samples width ht no_ext
      ci_width max_samples method_ jobs kernel stats trace_file trace_format
      progress =
    guarded @@ fun () ->
    check_jobs jobs;
    let method_ =
      match method_ with
      | Engine_method Engine.Pro when ht -> Engine_method Engine.Pro_ht
      | m -> m
    in
    (* The shared flags as the engine's query record, validated once as
       batch/serve validate theirs. bdd / brute never dispatch it; it
       only carries their run metadata. *)
    let q =
      { Engine.default with Engine.samples; width; ci_width; max_samples; seed;
        jobs; kernel }
    in
    let q =
      match method_ with
      | Engine_method m -> { q with Engine.method_ = m }
      | Bdd | Brute ->
        if ci_width <> None then
          or_die
            (Error "--ci-width applies to pro / sampling-mc / sampling-ht only");
        q
    in
    or_die (Engine.validate q);
    let g, name = or_die (load_graph ~file ~dataset ~seed ~scale) in
    let ts = or_die (parse_terminals g ~terminals ~k ~seed:(seed + 17)) in
    (try Ugraph.validate_terminals g ts
     with Invalid_argument msg -> or_die (Error msg));
    let q = { q with Engine.terminals = ts } in
    (* The trace sink is created only after every [or_die] above: those
       exit directly, while library failures below raise and unwind
       through [finalize], so an open --trace file is always written
       out (partial but valid) before [guarded] turns the exception
       into an error exit. *)
    let reporter =
      if progress || verbose then Some (Trace.Progress.create ()) else None
    in
    let trace =
      if trace_file = None && Option.is_none reporter then Trace.disabled
      else
        Trace.create
          ?on_event:
            (Option.map (fun r ev -> Trace.Progress.on_event r ev) reporter)
          ()
    in
    if Trace.enabled trace then Trace.install_par_hook trace;
    let finalize () =
      Option.iter Trace.Progress.finish reporter;
      match trace_file with
      | None -> ()
      | Some path ->
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () ->
            match trace_format with
            | `Chrome -> Trace.write_chrome oc trace
            | `Jsonl -> Trace.write_jsonl oc trace)
    in
    Fun.protect ~finally:finalize @@ fun () ->
    let extension = not no_ext in
    let compute obs =
      match method_ with
      | Engine_method _ ->
        Dispatched (Engine.estimate ~obs ~trace ~extension g q)
      | Bdd -> Bdd_exact (R.exact ~extension g ~terminals:ts)
      | Brute -> Brute_exact (Bddbase.Bruteforce.reliability g ~terminals:ts)
    in
    match stats with
    | `Json ->
      (* --stats json: the run under a live observer, emitted as one
         structured stats document (Statsdoc) in place of the report.
         The observer never touches random streams, so the result is
         identical to the plain run; with NETREL_FAKE_CLOCK set the
         whole document is byte-stable in the seed. The whole-run GC
         account becomes the top-level "gc" section (and Chrome counter
         events when tracing). *)
      let obs = Obs.create () in
      let t0 = Obs.now obs in
      let emit =
        if Trace.enabled trace then Some (fun k v -> Trace.counter trace k v)
        else None
      in
      let out =
        Obs.gc_phase obs ?emit "gc" (fun () ->
            Netrel.Statsdoc.par_account obs (fun () -> compute obs))
      in
      let seconds = Obs.now obs -. t0 in
      print_endline
        (Obs.Json.to_string ~pretty:true
           (stats_doc ~command:"estimate" ~graph_name:name
              ~method_name:(method_label method_) q ~obs ~seconds
              ~result:(result_doc out)))
    | `None ->
      Printf.printf "graph %s: %s\nterminals: [%s]\n" name
        (Format.asprintf "%a" Ugraph.pp_stats g)
        (String.concat ", " (List.map string_of_int ts));
      let out, dt = timed (fun () -> compute Obs.disabled) in
      print_report g out dt
  in
  let doc = "Compute the network reliability of terminals in an uncertain graph" in
  Cmd.v (Cmd.info "estimate" ~doc ~exits)
    Term.(const run $ verbose_arg $ graph_file $ dataset_arg $ seed_arg $ scale_arg
          $ terminals_arg $ k_arg $ samples $ width $ ht $ no_ext $ ci_width
          $ max_samples $ method_ $ jobs_arg $ kernel_arg $ stats_fmt
          $ trace_arg $ trace_format_arg $ progress_arg)

(* ---- stats ---- *)

let stats_cmd =
  let run file dataset seed scale = guarded @@ fun () ->
    match (file, dataset) with
    | None, None ->
      print_endline D.table2_header;
      List.iter (fun d -> print_endline (D.table2_row d)) (D.all ~seed ~scale ())
    | _ ->
      let g, name = or_die (load_graph ~file ~dataset ~seed ~scale) in
      Printf.printf "%s: %s\n" name (Format.asprintf "%a" Ugraph.pp_stats g);
      let bridges = Graphalgo.Bridges.bridge_eids g in
      let _, comps = Graphalgo.Connectivity.components g in
      Printf.printf "connected components: %d, bridges: %d\n" comps
        (List.length bridges)
  in
  let doc = "Print dataset statistics (all built-ins when no source is given)" in
  Cmd.v (Cmd.info "stats" ~doc ~exits)
    Term.(const run $ graph_file $ dataset_arg $ seed_arg $ scale_arg)

(* ---- preprocess ---- *)

let preprocess_cmd =
  let run file dataset seed scale terminals k = guarded @@ fun () ->
    let g, name = or_die (load_graph ~file ~dataset ~seed ~scale) in
    let ts = or_die (parse_terminals g ~terminals ~k ~seed:(seed + 17)) in
    Printf.printf "graph %s: %s\n" name (Format.asprintf "%a" Ugraph.pp_stats g);
    match P.run g ~terminals:ts with
    | P.Trivial r -> Printf.printf "resolved outright: R = %s\n" (Xprob.to_string r)
    | P.Reduced { pb; subproblems; stats } ->
      Printf.printf
        "pruned: %d -> %d vertices, %d -> %d edges\n\
         decomposed at %d bridges (pb = %s) into %d subproblem(s)\n\
         transformed to %d edges total (reduction ratio %.3f, %d rounds)\n"
        stats.P.original_vertices stats.P.pruned_vertices stats.P.original_edges
        stats.P.pruned_edges stats.P.n_bridges (Xprob.to_string pb)
        stats.P.n_subproblems stats.P.final_edges
        (P.reduction_ratio stats) stats.P.transform_rounds;
      List.iteri
        (fun i (sp : P.subproblem) ->
          Printf.printf "  #%d: %s, terminals [%s]\n" i
            (Format.asprintf "%a" Ugraph.pp_stats sp.P.graph)
            (String.concat ", " (List.map string_of_int sp.P.terminals)))
        subproblems
  in
  let doc = "Show the extension technique's reduction (Section 5)" in
  Cmd.v (Cmd.info "preprocess" ~doc ~exits)
    Term.(const run $ graph_file $ dataset_arg $ seed_arg $ scale_arg
          $ terminals_arg $ k_arg)

(* ---- gen ---- *)

let gen_cmd =
  let out =
    let doc = "Write the edge list to $(docv) (stdout when omitted)." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let dataset_req =
    let doc = Printf.sprintf "Dataset to generate: %s." dataset_names in
    Arg.(required & opt (some string) None & info [ "d"; "dataset" ] ~docv:"NAME" ~doc)
  in
  let run dataset seed scale out = guarded @@ fun () ->
    match dataset_by_name dataset ~seed ~scale with
    | None ->
      or_die (Error (Printf.sprintf "unknown dataset %S (known: %s)" dataset
                       dataset_names))
    | Some d -> (
      match out with
      | Some path ->
        Ugraph.to_file path d.D.graph;
        Printf.printf "wrote %s (%s)\n" path
          (Format.asprintf "%a" Ugraph.pp_stats d.D.graph)
      | None -> Ugraph.to_channel stdout d.D.graph)
  in
  let doc = "Generate a built-in synthetic dataset as an edge-list file" in
  Cmd.v (Cmd.info "gen" ~doc ~exits)
    Term.(const run $ dataset_req $ seed_arg $ scale_arg $ out)

(* ---- convert ---- *)

let convert_cmd =
  let input_pos =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"INPUT"
             ~doc:"Input graph: text edge list, SNAP/KONECT edge list, \
                   or binary container.")
  in
  let output_pos =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"OUTPUT"
             ~doc:"Output file; a $(b,.nrb) extension selects binary \
                   unless $(b,--to) says otherwise.")
  in
  let from_arg =
    let doc = "Input format: $(b,auto) (sniffed), $(b,text), $(b,snap), \
               or $(b,bin)." in
    Arg.(value
         & opt (enum [ ("auto", `Auto); ("text", `Text); ("snap", `Snap);
                       ("bin", `Bin) ]) `Auto
         & info [ "from" ] ~docv:"FMT" ~doc)
  in
  let to_arg =
    let doc = "Output format: $(b,auto) (by extension), $(b,text), or \
               $(b,bin)." in
    Arg.(value
         & opt (enum [ ("auto", `Auto); ("text", `Text); ("bin", `Bin) ]) `Auto
         & info [ "to" ] ~docv:"FMT" ~doc)
  in
  let prob_arg =
    let doc = "Default probability for SNAP/KONECT edges without a \
               probability column." in
    Arg.(value & opt float 0.5 & info [ "prob" ] ~docv:"P" ~doc)
  in
  (* Our text format opens with a vertex-count line (one integer token,
     comments aside); SNAP rows always carry at least two fields. *)
  let sniff_text path =
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec first_data () =
          match input_line ic with
          | exception End_of_file -> None
          | line ->
            let t = String.trim line in
            if t = "" || t.[0] = '#' || t.[0] = '%' then first_data ()
            else Some t
        in
        match first_data () with
        | None -> `Text
        | Some t ->
          if String.exists (fun c -> c = ' ' || c = '\t') t then `Snap
          else `Text)
  in
  let run from_fmt to_fmt prob input output = guarded @@ fun () ->
    let from_fmt =
      match from_fmt with
      | `Auto -> if Bingraph.is_binary_file input then `Bin else sniff_text input
      | (`Text | `Snap | `Bin) as f -> f
    in
    let bg =
      match from_fmt with
      | `Bin -> Bingraph.load input
      | `Text -> Bingraph.of_graph (Ugraph.of_file input)
      | `Snap -> Bingraph.Snap.of_file ~default_prob:prob input
    in
    let to_fmt =
      match to_fmt with
      | `Auto -> if Filename.check_suffix output ".nrb" then `Bin else `Text
      | (`Text | `Bin) as f -> f
    in
    (* A mapped input is checked once: by [validate] when it is copied
       as it is, by [to_graph] when it is rewritten as text. *)
    (match to_fmt with
    | `Bin ->
      if from_fmt = `Bin then Bingraph.validate bg;
      Bingraph.to_file output bg
    | `Text -> Ugraph.to_file output (Bingraph.to_graph bg));
    Printf.printf "wrote %s (%s, %d vertices, %d edges, digest %016x)\n"
      output
      (match to_fmt with `Bin -> "binary" | `Text -> "text")
      (Bingraph.n_vertices bg) (Bingraph.n_edges bg) (Bingraph.digest bg)
  in
  let doc = "Convert between text, SNAP/KONECT, and binary (mmap-able) \
             graph formats" in
  Cmd.v (Cmd.info "convert" ~doc ~exits)
    Term.(const run $ from_arg $ to_arg $ prob_arg $ input_pos $ output_pos)

(* ---- bounds ---- *)

let bounds_cmd =
  let width =
    let doc = "Maximum S2BDD layer width. The bounds are exactly those \
               $(b,estimate) proves at this width; wider layers cost more \
               (DBLP1, 5 terminals: about 0.2 s at 1000 and 3 s at \
               10000)." in
    Arg.(value & opt int 10_000 & info [ "w"; "width" ] ~docv:"W" ~doc)
  in
  let threshold =
    let doc = "Also report whether the bounds decide $(docv)." in
    Arg.(value & opt (some float) None & info [ "threshold" ] ~docv:"P" ~doc)
  in
  let run file dataset seed scale terminals k width threshold = guarded @@ fun () ->
    if Option.fold ~none:false ~some:Float.is_nan threshold then
      or_die (Error "--threshold must be a number, not nan");
    let g, name = or_die (load_graph ~file ~dataset ~seed ~scale) in
    let ts = or_die (parse_terminals g ~terminals ~k ~seed:(seed + 17)) in
    Printf.printf "graph %s: %s\n" name (Format.asprintf "%a" Ugraph.pp_stats g);
    let b, dt =
      timed (fun () -> Netrel.Bounds.compute ~width g ~terminals:ts)
    in
    Printf.printf "proven bounds: [%.10g, %.10g]%s\n" b.Netrel.Bounds.lower
      b.Netrel.Bounds.upper
      (if b.Netrel.Bounds.exact then "  (exact)" else "");
    (match threshold with
    | None -> ()
    | Some p ->
      let verdict =
        match Netrel.Bounds.decides b ~threshold:p with
        | `Above -> "R >= threshold (proven)"
        | `Below -> "R < threshold (proven)"
        | `Unknown -> "undecided at this construction budget"
      in
      Printf.printf "threshold %.4g: %s\n" p verdict);
    Printf.printf "time: %s\n" (Relstats.format_seconds dt)
  in
  let doc = "Prove reliability bounds without sampling: pro's S2BDD \
             construction at the same width, without its descents" in
  Cmd.v (Cmd.info "bounds" ~doc ~exits)
    Term.(const run $ graph_file $ dataset_arg $ seed_arg $ scale_arg
          $ terminals_arg $ k_arg $ width $ threshold)

(* ---- search ---- *)

let search_cmd =
  let sources =
    let doc = "Comma-separated source vertex ids." in
    Arg.(required & opt (some string) None & info [ "sources" ] ~docv:"IDS" ~doc)
  in
  let eta =
    let doc = "Reliability threshold in [0, 1]." in
    Arg.(value & opt float 0.5 & info [ "eta" ] ~docv:"ETA" ~doc)
  in
  let samples =
    let doc = "Number of sampled possible graphs." in
    Arg.(value & opt int 2_000 & info [ "s"; "samples" ] ~docv:"S" ~doc)
  in
  let run file dataset seed scale sources eta samples = guarded @@ fun () ->
    if not (eta >= 0. && eta <= 1.) then
      or_die (Error (Printf.sprintf "--eta must be in [0, 1] (got %g)" eta));
    check_samples samples;
    let g, name = or_die (load_graph ~file ~dataset ~seed ~scale) in
    let srcs = or_die (parse_ids g ~flag:"--sources" sources) in
    Printf.printf "graph %s: %s\n" name (Format.asprintf "%a" Ugraph.pp_stats g);
    let hits, dt =
      timed (fun () -> Reach.search ~seed g ~sources:srcs ~eta ~samples)
    in
    Printf.printf "%d vertices reachable with probability >= %.3f (%s):\n"
      (List.length hits) eta (Relstats.format_seconds dt);
    List.iter
      (fun r -> Printf.printf "  %6d  %.4f\n" r.Reach.vertex r.Reach.reliability)
      hits
  in
  let doc = "Reliability search: vertices reliably reachable from sources" in
  Cmd.v (Cmd.info "search" ~doc ~exits)
    Term.(const run $ graph_file $ dataset_arg $ seed_arg $ scale_arg $ sources
          $ eta $ samples)

(* ---- selfcheck ---- *)

let selfcheck_cmd =
  let trials =
    let doc = "Number of random corpus cases on top of the fixed adversarial \
               and generator shapes. Also scales the calibration replicate \
               count." in
    Arg.(value & opt int 50 & info [ "trials" ] ~docv:"N" ~doc)
  in
  let json =
    let doc = "Emit the machine-readable selfcheck report (one JSON document \
               on stdout: run metadata, per-section tallies, violations with \
               reproducer artifacts, overall result) instead of the \
               human-readable summary." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let run trials seed json trace_file trace_format = guarded @@ fun () ->
    if trials < 0 then or_die (Error "--trials must be >= 0");
    let trace = if trace_file = None then Trace.disabled else Trace.create () in
    if Trace.enabled trace then Trace.install_par_hook trace;
    let finalize () =
      match trace_file with
      | None -> ()
      | Some path ->
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () ->
            match trace_format with
            | `Chrome -> Trace.write_chrome oc trace
            | `Jsonl -> Trace.write_jsonl oc trace)
    in
    let rep =
      Fun.protect ~finally:finalize @@ fun () ->
      Check.run ~trace ~trials ~seed ()
    in
    if json then
      print_endline (Obs.Json.to_string ~pretty:true (Check.report_json rep))
    else Format.printf "%a" Check.pp_report rep;
    if not (Check.ok rep) then exit 1
  in
  let doc = "Differential self-validation: every estimator against the exact \
             oracle, metamorphic identities and CI calibration" in
  Cmd.v (Cmd.info "selfcheck" ~doc ~exits)
    Term.(const run $ trials $ seed_arg $ json $ trace_arg $ trace_format_arg)

(* ---- reach ---- *)

let reach_cmd =
  let source =
    Arg.(required & opt (some int) None
         & info [ "source" ] ~docv:"U" ~doc:"Source vertex.")
  in
  let target =
    Arg.(required & opt (some int) None
         & info [ "target" ] ~docv:"V" ~doc:"Target vertex.")
  in
  let dist =
    let doc = "Hop-distance bound; omit for plain s-t reliability." in
    Arg.(value & opt (some int) None & info [ "max-dist" ] ~docv:"D" ~doc)
  in
  let samples =
    let doc = "Sample budget: the S2BDD budget of an s-t query, the number \
               of sampled possible graphs of a $(b,--max-dist) one." in
    Arg.(value & opt int 10_000 & info [ "s"; "samples" ] ~docv:"S" ~doc)
  in
  let run file dataset seed scale source target dist samples = guarded @@ fun () ->
    check_samples samples;
    let g, name = or_die (load_graph ~file ~dataset ~seed ~scale) in
    Printf.printf "graph %s: %s\n" name (Format.asprintf "%a" Ugraph.pp_stats g);
    match dist with
    | None ->
      let config = { Netrel.S2bdd.default_config with samples; seed } in
      let rep, dt =
        timed (fun () -> Reach.two_terminal ~config g ~source ~target)
      in
      Printf.printf "s-t reliability = %.10g%s  bounds [%.4g, %.4g]\ntime: %s\n"
        rep.Netrel.Reliability.value
        (if rep.Netrel.Reliability.exact then " (exact)" else "")
        rep.Netrel.Reliability.lower rep.Netrel.Reliability.upper
        (Relstats.format_seconds dt)
    | Some d ->
      let est, dt =
        timed (fun () ->
            Reach.distance_constrained_mc ~seed g ~source ~target ~d ~samples)
      in
      Printf.printf "Pr(dist(%d, %d) <= %d) = %.6g  (%d samples, %s)\n" source
        target d est.Reach.value est.Reach.samples_used
        (Relstats.format_seconds dt)
  in
  let doc = "Two-terminal and distance-constrained reachability" in
  Cmd.v (Cmd.info "reach" ~doc ~exits)
    Term.(const run $ graph_file $ dataset_arg $ seed_arg $ scale_arg $ source
          $ target $ dist $ samples)

(* ---- batch / serve ---- *)

(* One query per line: whitespace-separated key=value tokens.
     terminals=0,5,9 [method=pro|pro-ht|sampling-mc|sampling-ht]
     [samples=N] [width=W] [ci-width=X] [max-samples=N] [seed=N]
     [kernel=flat|bitsliced]
   Unset keys fall back to the command-line defaults, and the record is
   validated as [netrel estimate] validates its flags. Blank lines and
   '#' comments are skipped by both commands. *)
let parse_query_line g ~defaults line =
  let fields =
    String.map (function '\t' -> ' ' | c -> c) (String.trim line)
    |> String.split_on_char ' '
    |> List.filter (fun s -> s <> "")
  in
  let rec go q ~has_terminals = function
    | [] ->
      if has_terminals then Result.map (fun () -> q) (Engine.validate q)
      else Error "query line is missing terminals=IDS"
    | tok :: rest -> (
      match String.index_opt tok '=' with
      | None ->
        Error (Printf.sprintf "bad query token %S (expected key=value)" tok)
      | Some i ->
        let k = String.sub tok 0 i in
        let v = String.sub tok (i + 1) (String.length tok - i - 1) in
        let continue q = go q ~has_terminals rest in
        let int_field f =
          match int_of_string_opt v with
          | Some n -> continue (f n)
          | None -> Error (Printf.sprintf "query key %s: bad integer %S" k v)
        in
        (match k with
        | "terminals" | "t" -> (
          match parse_terminals g ~terminals:(Some v) ~k:None ~seed:0 with
          | Ok ts -> go { q with Engine.terminals = ts } ~has_terminals:true rest
          | Error e -> Error e)
        | "method" | "m" -> (
          match Engine.method_of_name v with
          | Some m -> continue { q with Engine.method_ = m }
          | None ->
            Error
              (Printf.sprintf
                 "unknown query method %S (pro, pro-ht, sampling-mc, \
                  sampling-ht)" v))
        | "samples" | "s" -> int_field (fun n -> { q with Engine.samples = n })
        | "width" | "w" -> int_field (fun n -> { q with Engine.width = n })
        | "max-samples" ->
          int_field (fun n -> { q with Engine.max_samples = Some n })
        | "seed" -> int_field (fun n -> { q with Engine.seed = n })
        | "ci-width" -> (
          match float_of_string_opt v with
          | Some w -> continue { q with Engine.ci_width = Some w }
          | None -> Error (Printf.sprintf "query key ci-width: bad float %S" v))
        | "kernel" -> (
          match Mcsampling.kernel_mode_of_name v with
          | Some k -> continue { q with Engine.kernel = k }
          | None ->
            Error
              (Printf.sprintf "unknown kernel %S (%s)" v
                 (String.concat ", "
                    (List.map Mcsampling.kernel_mode_name
                       Mcsampling.kernel_modes))))
        | _ -> Error (Printf.sprintf "unknown query key %S" k)))
  in
  go defaults ~has_terminals:false fields

let query_doc ~command ~graph_name q (a : Engine.answer) ~seconds =
  stats_doc ~command ~graph_name ~method_name:a.Engine.method_name q
    ~obs:a.Engine.obs ~seconds ~result:a.Engine.result

let batch_samples_arg =
  let doc = "Default plain-sampling budget for query lines without \
             $(b,samples=)." in
  Arg.(value & opt int 10_000 & info [ "s"; "samples" ] ~docv:"S" ~doc)

let batch_width_arg =
  let doc = "Default maximum S2BDD layer width for query lines without \
             $(b,width=)." in
  Arg.(value & opt int 10_000 & info [ "w"; "width" ] ~docv:"W" ~doc)

let batch_cmd =
  let file_pos =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE"
             ~doc:"Newline-delimited query file: one \
                   $(b,terminals=...) $(b,key=value) line per query.")
  in
  let run file dataset seed scale jobs kernel samples width qfile =
    guarded @@ fun () ->
    check_jobs jobs;
    let g, name, digest = or_die (load_graph_full ~file ~dataset ~seed ~scale) in
    let obs = Obs.create () in
    let eng = Engine.create ~obs () in
    let defaults =
      { Engine.default with Engine.samples; width; seed; jobs; kernel }
    in
    let ic = open_in qfile in
    let lines =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec read acc =
            match input_line ic with
            | l -> read (l :: acc)
            | exception End_of_file -> List.rev acc
          in
          read [])
    in
    List.iter
      (fun line ->
        let t = String.trim line in
        if t <> "" && t.[0] <> '#' then begin
          let q = or_die (parse_query_line g ~defaults line) in
          let t0 = Obs.now obs in
          let a = Engine.query ?digest eng g q in
          let seconds = Obs.now obs -. t0 in
          print_endline
            (Obs.Json.to_string ~pretty:true
               (query_doc ~command:"batch" ~graph_name:name q a ~seconds))
        end)
      lines;
    (* Closing summary: the cache counters prove the amortization
       (preprocessing/construction executed once, later queries hit). *)
    print_endline (Obs.Json.to_string ~pretty:true (Engine.summary_json eng))
  in
  let doc = "Answer many reliability queries against one graph through the \
             amortized engine (one stats document per query, then the \
             engine cache summary)" in
  Cmd.v (Cmd.info "batch" ~doc ~exits)
    Term.(const run $ graph_file $ dataset_arg $ seed_arg $ scale_arg
          $ jobs_arg $ kernel_arg $ batch_samples_arg $ batch_width_arg
          $ file_pos)

let serve_cmd =
  let run file dataset seed scale jobs kernel samples width =
    guarded @@ fun () ->
    check_jobs jobs;
    let g, name, digest = or_die (load_graph_full ~file ~dataset ~seed ~scale) in
    let obs = Obs.create () in
    let eng = Engine.create ~obs () in
    let defaults =
      { Engine.default with Engine.samples; width; seed; jobs; kernel }
    in
    (* Line protocol on stdin/stdout, one compact JSON document per
       answer; errors keep the server alive. [stats] emits the engine
       cache summary, [quit] (or EOF) ends the session. *)
    let respond doc = print_endline (Obs.Json.to_string ~pretty:false doc) in
    let rec loop () =
      match input_line stdin with
      | exception End_of_file -> ()
      | line ->
        let t = String.trim line in
        if t = "" || t.[0] = '#' then loop ()
        else if t = "quit" || t = "exit" then ()
        else if t = "stats" then begin
          respond (Engine.summary_json eng);
          loop ()
        end
        else begin
          (match parse_query_line g ~defaults line with
          | Error msg -> respond (Obs.Json.Obj [ ("error", Obs.Json.Str msg) ])
          | Ok q -> (
            match
              let t0 = Obs.now obs in
              let a = Engine.query ?digest eng g q in
              (a, Obs.now obs -. t0)
            with
            | a, seconds ->
              respond (query_doc ~command:"serve" ~graph_name:name q a ~seconds)
            | exception (Invalid_argument msg | Failure msg) ->
              respond (Obs.Json.Obj [ ("error", Obs.Json.Str msg) ])));
          loop ()
        end
    in
    loop ()
  in
  let doc = "Serve reliability queries over a line protocol on \
             stdin/stdout, amortizing preprocessing and construction \
             across queries" in
  Cmd.v (Cmd.info "serve" ~doc ~exits)
    Term.(const run $ graph_file $ dataset_arg $ seed_arg $ scale_arg
          $ jobs_arg $ kernel_arg $ batch_samples_arg $ batch_width_arg)

(* ---- benchdiff ---- *)

let benchdiff_cmd =
  let module B = Netrel.Benchdiff in
  let old_file =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"OLD" ~doc:"Baseline BENCH_*.json document.")
  in
  let new_file =
    Arg.(required & pos 1 (some file) None
         & info [] ~docv:"NEW" ~doc:"Candidate BENCH_*.json document.")
  in
  let tolerance =
    let doc = "Relative tolerance on each metric's median (0.25 = a 25% \
               shift in the bad direction is a regression). The realised \
               per-row threshold is the max of this, the MAD-based noise \
               band of the baseline's repeats, and the metric's absolute \
               floor." in
    Arg.(value & opt float B.default_rel_tol
         & info [ "tolerance" ] ~docv:"REL" ~doc)
  in
  let mad_mult =
    let doc = "Multiplier on the baseline repeats' median absolute \
               deviation (default 6.0, ~4 sigma for normal noise)." in
    Arg.(value & opt float B.default_mad_mult
         & info [ "mad-mult" ] ~docv:"M" ~doc)
  in
  let json =
    let doc = "Emit the comparison as one JSON document instead of the \
               human-readable table." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let run old_file new_file tolerance mad_mult json = guarded @@ fun () ->
    (* A nan or infinite multiplier passes every row, switching the gate
       off; a negative one has no meaning. *)
    List.iter
      (fun (flag, v) ->
        if not (Float.is_finite v && v >= 0.) then
          or_die
            (Error
               (Printf.sprintf "%s must be a finite number >= 0 (got %g)" flag
                  v)))
      [ ("--tolerance", tolerance); ("--mad-mult", mad_mult) ];
    let parse path =
      let ic = open_in path in
      let s =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      try Obs.Json.of_string_exn s
      with Obs.Json.Parse_error msg -> or_die (Error (path ^ ": " ^ msg))
    in
    let old_doc = parse old_file and new_doc = parse new_file in
    match
      B.compare_docs ~rel_tol:tolerance ~mad_mult ~old_doc ~new_doc ()
    with
    | Error msg -> or_die (Error msg)
    | Ok rep ->
      if json then
        print_endline (Obs.Json.to_string ~pretty:true (B.render_json rep))
      else print_string (B.render_human rep);
      if B.regressed rep then exit 1
  in
  let doc = "Compare two BENCH_*.json documents with noise-aware \
             per-metric thresholds (median-of-repeats, MAD bands, \
             direction-aware); exits 1 on regression, 2 on unusable \
             input" in
  Cmd.v (Cmd.info "benchdiff" ~doc ~exits)
    Term.(const run $ old_file $ new_file $ tolerance $ mad_mult $ json)

let () =
  let doc = "network reliability in uncertain graphs (S2BDD, EDBT 2019)" in
  let info = Cmd.info "netrel" ~version:"1.0.0" ~doc ~exits in
  let cmd =
    Cmd.group info
      [ estimate_cmd; stats_cmd; preprocess_cmd; gen_cmd; convert_cmd;
        bounds_cmd; search_cmd; reach_cmd; selfcheck_cmd; batch_cmd;
        serve_cmd; benchdiff_cmd ]
  in
  exit
    (match Cmd.eval_value cmd with
    | Ok _ -> 0
    | Error (`Parse | `Term) -> 2
    | Error `Exn -> Cmd.Exit.internal_error)
