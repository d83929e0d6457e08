(* One section per table/figure of the paper's evaluation (Section 7),
   plus the ablations listed in DESIGN.md. Each section prints the same
   rows/series the paper reports; EXPERIMENTS.md records the
   paper-vs-measured comparison. *)

module D = Workload.Datasets
module G = Workload.Generators
module S = Netrel.S2bdd
module R = Netrel.Reliability
module SS = Netrel.Samplesize
module P = Preprocess.Pipeline
module O = Graphalgo.Ordering

type config = {
  scale : float;   (* dataset scale factor *)
  quick : bool;    (* cut repetitions / budgets for a fast pass *)
  seed : int;
  json : bool;     (* also write BENCH_<section>.json stats files *)
  trace : bool;    (* also write BENCH_<section>_trace.json event traces *)
  force : bool;    (* overwrite an existing BENCH_<section>.json *)
  repeats : int;   (* instrumented runs per (dataset, method) pair *)
  baseline : string option;
      (* compare freshly collected runs against this BENCH_*.json
         instead of writing a file; a regression fails the bench run *)
}

let default_config =
  { scale = 1.0; quick = false; seed = 1; json = false; trace = false;
    force = false; repeats = 1; baseline = None }

let banner title note =
  Printf.printf "\n=== %s ===\n%s\n\n" title note

(* ---- structured per-phase stats (BENCH_<section>.json) ----

   With --json, instrumented runs collect an Obs account per
   (dataset, method) pair and each section writes one JSON file:
   { "section": ..., "runs": [ <Statsdoc document>, ... ] }. The file
   is read back and re-validated immediately — a malformed document or
   a missing top-level key fails the bench run (and hence the runtest
   smoke rule that drives the quick parallel section). *)

module J = Obs.Json
module SD = Netrel.Statsdoc

let validate_stats_doc doc =
  List.iter
    (fun k ->
      if J.member k doc = None then
        failwith (Printf.sprintf "stats document missing top-level key %S" k))
    SD.required_keys;
  (* Durations come off the monotonic clock now; a negative run.seconds
     would mean a wall-clock step leaked back in. *)
  match J.member "run" doc with
  | None -> failwith "stats document missing run"
  | Some run -> (
    match J.member "seconds" run with
    | Some (J.Float s) when s >= 0. -> ()
    | Some (J.Float s) ->
      failwith (Printf.sprintf "stats document run.seconds = %g < 0" s)
    | _ -> failwith "stats document missing run.seconds")

(* --baseline: instead of writing BENCH_<section>.json, diff the fresh
   runs against the given baseline file with the noise-aware benchdiff
   gate. A baseline written for another section is skipped with a note
   (so `--baseline` composes with multi-section runs); a regression
   fails the whole bench run. *)
let diff_against_baseline ~section ~path doc =
  let module B = Netrel.Benchdiff in
  let ic = open_in path in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let old_doc = J.of_string_exn s in
  let applies =
    match J.member "section" old_doc with
    | Some (J.Str s) -> s = section
    | _ -> true
  in
  if not applies then
    Printf.printf "[baseline %s: section mismatch, skipping %s]\n" path section
  else
    match B.compare_docs ~old_doc ~new_doc:doc () with
    | Error msg -> failwith (path ^ ": " ^ msg)
    | Ok rep ->
      print_string (B.render_human rep);
      if B.regressed rep then
        failwith
          (Printf.sprintf "benchdiff: %d regression(s) against %s"
             rep.B.regressions path)

let emit_json cfg ~section ?(trace = Trace.disabled) runs =
  if cfg.json then begin
    let file = Printf.sprintf "BENCH_%s.json" section in
    let doc =
      J.Obj
        [
          ("section", J.Str section);
          ("schema", J.Int SD.schema_version);
          ("runs", J.List runs);
        ]
    in
    match cfg.baseline with
    | Some path -> diff_against_baseline ~section ~path doc
    | None ->
    if Sys.file_exists file && not cfg.force then
      failwith
        (Printf.sprintf
           "%s already exists; pass --force to overwrite (or --baseline \
            %s to compare instead)"
           file file);
    let out = open_out file in
    output_string out (J.to_string ~pretty:true doc);
    output_char out '\n';
    close_out out;
    (* Emit-then-reparse self check: the schema must survive a round
       trip through our own parser. *)
    let ic = open_in file in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    let parsed = J.of_string_exn s in
    (match J.member "schema" parsed with
    | Some (J.Int v) when v = SD.schema_version -> ()
    | _ -> failwith ("missing/wrong schema version in " ^ file));
    (match J.member "runs" parsed with
    | Some (J.List rs) when List.length rs = List.length runs ->
      List.iter validate_stats_doc rs
    | _ -> failwith ("bad runs array in " ^ file));
    Printf.printf "[wrote %s: %d instrumented run(s)]\n" file (List.length runs)
  end;
  if Trace.enabled trace then begin
    let file = Printf.sprintf "BENCH_%s_trace.json" section in
    let out = open_out file in
    Trace.write_chrome out trace;
    close_out out;
    (* Same discipline as the stats files: reparse and schema-check. *)
    let ic = open_in file in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    (match Trace.validate_chrome (J.of_string_exn s) with
    | Ok () -> ()
    | Error msg -> failwith (file ^ ": " ^ msg));
    Printf.printf "[wrote %s: %d event(s)]\n" file
      (List.length (Trace.events trace) + List.length (Trace.shared_events trace))
  end

(* Per-section trace sink (disabled unless --trace): instrumented runs
   stream their events into it and emit_json writes the Chrome file. *)
let section_trace cfg = if cfg.trace then Trace.create () else Trace.disabled

(* One instrumented run: execute [f ~obs ~trace], time it on the
   observer's clock, and assemble the Statsdoc document. *)
let stats_run cfg ?(jobs = 1) ~method_name ~graph ~ts ~s ~w ~trace f =
  let obs = Obs.create () in
  let t0 = Obs.now obs in
  let result = SD.par_account obs (fun () -> f ~obs ~trace) in
  let seconds = Obs.now obs -. t0 in
  let run_meta =
    { SD.command = "bench"; method_ = method_name; graph; terminals = ts;
      seed = cfg.seed; jobs; samples = s; width = w }
  in
  SD.build ~obs ~run:run_meta ~seconds ~result

(* [--repeats N] collects N identically-seeded documents per pair: the
   computed results are bit-identical (determinism contract), only the
   wall-clock and GC readings vary, which is exactly the repeat noise
   benchdiff's median/MAD thresholds feed on. *)
let stats_runs cfg ?jobs ~method_name ~graph ~ts ~s ~w ~trace f =
  List.init (max 1 cfg.repeats) (fun _ ->
      stats_run cfg ?jobs ~method_name ~graph ~ts ~s ~w ~trace f)

let terminals cfg ~search g ~k =
  G.random_terminals ~seed:(cfg.seed + (1000 * search)) g ~k

(* ---- method runners ---- *)

let s2_config cfg ~s ~w ~estimator ~seed =
  { S.default_config with S.samples = s; S.width = w; S.estimator; S.seed;
    S.max_work = (if cfg.quick then 20_000_000 else S.default_config.S.max_work) }

let run_pro cfg ?(ext = true) ?(estimator = S.Monte_carlo) ~s ~w ~seed g ts =
  let config = s2_config cfg ~s ~w ~estimator ~seed in
  Relstats.time (fun () -> R.estimate ~config ~extension:ext g ~terminals:ts)

let run_sampling ?(estimator = S.Monte_carlo) ~s ~seed g ts =
  match estimator with
  | S.Monte_carlo ->
    Relstats.time (fun () -> (Mcsampling.monte_carlo ~seed g ~terminals:ts ~samples:s).Mcsampling.value)
  | S.Horvitz_thompson ->
    Relstats.time (fun () ->
        (Mcsampling.horvitz_thompson ~seed g ~terminals:ts ~samples:s).Mcsampling.value)

let run_bdd ~budget g ts =
  Relstats.time (fun () ->
      Bddbase.Exact.reliability_float ~node_budget:budget g ~terminals:ts)

(* ---- Table 2: dataset statistics ---- *)

let table2 cfg =
  banner "Table 2: dataset statistics"
    "Synthetic substitutes for the paper's datasets (DESIGN.md section 5);\n\
     sizes are scaled ~10-20x down so the suite runs on a laptop.";
  print_endline D.table2_header;
  List.iter
    (fun d -> print_endline (D.table2_row d))
    (D.all ~seed:cfg.seed ~scale:cfg.scale ())

(* ---- Figure 3: response time overview ---- *)

let fig3 cfg =
  banner "Figure 3: response time, Pro(MC) vs Pro(MC) w/o ext vs Sampling(MC) vs BDD"
    "Paper shape: Pro fastest on every dataset and k; the BDD baseline DNFs\n\
     (memory) on all large datasets; the gap is largest on road networks.";
  let s = if cfg.quick then 2_000 else 10_000 in
  let w = if cfg.quick then 500 else 1_000 in
  let ks = if cfg.quick then [ 10 ] else [ 5; 10; 20 ] in
  let searches = if cfg.quick then 1 else 3 in
  let budget = 200_000 in
  let datasets = D.large ~seed:cfg.seed ~scale:cfg.scale () in
  List.iter
    (fun k ->
      Printf.printf "--- k = %d (s = %d, w = %d, avg of %d searches) ---\n" k s w
        searches;
      Printf.printf "%-8s %12s %12s %12s %12s %9s\n" "Dataset" "Pro(MC)"
        "Pro w/o ext" "Sampling(MC)" "BDD" "Speedup";
      List.iter
        (fun (d : D.t) ->
          let g = d.D.graph in
          let avg f =
            let total = ref 0. in
            for search = 1 to searches do
              let ts = terminals cfg ~search g ~k in
              let _, dt = f ts in
              total := !total +. dt
            done;
            !total /. float_of_int searches
          in
          let pro = avg (fun ts -> run_pro cfg ~s ~w ~seed:cfg.seed g ts) in
          let pro_noext =
            avg (fun ts -> run_pro cfg ~ext:false ~s ~w ~seed:cfg.seed g ts)
          in
          let sampling = avg (fun ts -> run_sampling ~s ~seed:cfg.seed g ts) in
          let bdd_result = ref "" in
          let bdd =
            avg (fun ts ->
                let r, dt = run_bdd ~budget g ts in
                (match r with
                | Ok _ -> bdd_result := Relstats.format_seconds dt
                | Error (`Node_budget_exceeded _) -> bdd_result := "DNF");
                (r, dt))
          in
          ignore bdd;
          Printf.printf "%-8s %12s %12s %12s %12s %8.1fx\n" d.D.abbr
            (Relstats.format_seconds pro)
            (Relstats.format_seconds pro_noext)
            (Relstats.format_seconds sampling)
            !bdd_result (sampling /. pro))
        datasets;
      print_newline ())
    ks

(* ---- Figure 4: effect of the number of samples ---- *)

let fig4 cfg =
  banner "Figure 4: reduction rates vs number of samples"
    "Paper shape: both the response-time ratio Pro/Sampling (a) and the\n\
     sample-count ratio s'/s (b) drop as s grows - the bound-based\n\
     reduction pays off most when many samples are requested.";
  let w = 1_000 in
  let k = 10 in
  let ss = if cfg.quick then [ 100; 1_000 ] else [ 100; 1_000; 10_000; 100_000 ] in
  let datasets = D.large ~seed:cfg.seed ~scale:cfg.scale () in
  Printf.printf "%-8s %10s %16s %16s %16s\n" "Dataset" "s" "time Pro/Samp"
    "samples s'/s" "drawn/s";
  List.iter
    (fun (d : D.t) ->
      let g = d.D.graph in
      let ts = terminals cfg ~search:1 g ~k in
      List.iter
        (fun s ->
          (* Hit-d at s = 100k is ~2 minutes of pure baseline sampling;
             skip the largest budget there unless asked for. *)
          if not (cfg.quick && s > 1_000)
             && not (s >= 100_000 && Ugraph.n_edges g > 20_000)
          then begin
            let rep, pro_t = run_pro cfg ~s ~w ~seed:cfg.seed g ts in
            let _, samp_t = run_sampling ~s ~seed:cfg.seed g ts in
            let ratio_t = pro_t /. samp_t in
            let ratio_s =
              float_of_int rep.R.s_reduced /. float_of_int (max 1 rep.R.s_given)
            in
            let ratio_drawn =
              float_of_int rep.R.samples_drawn /. float_of_int (max 1 s)
            in
            Printf.printf "%-8s %10d %16.3f %16.3f %16.3f\n" d.D.abbr s ratio_t
              ratio_s ratio_drawn
          end)
        ss;
      print_newline ())
    datasets

(* ---- Figure 5: effect of the maximum width ---- *)

let fig5 cfg =
  banner "Figure 5: memory and response time vs maximum width w"
    "Paper shape: memory grows with w but not with the graph; response time\n\
     is comparatively flat in w.";
  let s = if cfg.quick then 2_000 else 10_000 in
  let k = 10 in
  let ws = if cfg.quick then [ 100; 1_000 ] else [ 100; 1_000; 10_000 ] in
  let datasets = D.large ~seed:cfg.seed ~scale:cfg.scale () in
  Printf.printf "%-8s %8s %14s %12s %10s %10s\n" "Dataset" "w" "peak [MB]"
    "time" "layers" "maxwidth";
  List.iter
    (fun (d : D.t) ->
      let g = d.D.graph in
      let ts = terminals cfg ~search:1 g ~k in
      List.iter
        (fun w ->
          let rep, dt = run_pro cfg ~ext:false ~s ~w ~seed:cfg.seed g ts in
          let sub = List.hd rep.R.subresults in
          (* Resident S2BDD memory: widest single layer (the S2BDD keeps
             one layer plus the sinks). *)
          let mb = float_of_int (8 * sub.S.peak_state_words) /. 1_048_576. in
          Printf.printf "%-8s %8d %14.2f %12s %10d %10d\n" d.D.abbr w mb
            (Relstats.format_seconds dt) sub.S.layers_built sub.S.max_width)
        ws;
      print_newline ())
    datasets

(* ---- Tables 3 and 4: accuracy on the small datasets ---- *)

(* Ground truth for the accuracy tables: the exact BDD, falling back to
   a wide flag-merging S2BDD (coarser node merging reaches much further)
   under a width-minimising order. Returns [None] when both blow up. *)
let exact_or_none g ts =
  match R.exact ~node_budget:(1 lsl 21) g ~terminals:ts with
  | Ok r -> Some r
  | Error _ ->
    (* Flag merging reaches much further than the exact-count BDD, but
       some k=10/20 searches stay intractable: bound the effort and let
       the caller draw a fresh search instead. A width-capped run is
       only usable when the `exact` flag holds. *)
    let config =
      { S.default_config with S.width = 1 lsl 16;
        S.order = `Explicit (O.best_order g);
        S.samples = 1;  (* bounds only: no sampling on failed attempts *)
        S.max_work = 60_000_000 }
    in
    let rep = R.estimate ~config ~extension:false g ~terminals:ts in
    if rep.R.exact then Some rep.R.value else None

let accuracy_table cfg ~title ~note ~dataset =
  banner title note;
  let q1 = if cfg.quick then 5 else 10 in
  let q2 = if cfg.quick then 5 else 8 in
  let s = 1_000 in
  let w = 2_000 in
  let ks = if cfg.quick then [ 10 ] else [ 5; 10; 20 ] in
  let d : D.t = dataset in
  let g = d.D.graph in
  Printf.printf "(q1 = %d searches x q2 = %d runs, s = %d, w = %d)\n\n" q1 q2 s w;
  Printf.printf "%-4s %-14s %14s %12s\n" "k" "Method" "Variance" "Error rate";
  List.iter
    (fun k ->
      (* Collect q1 searches whose exact reliability is tractable. *)
      let searches_list = ref [] and exact_list = ref [] in
      let search = ref 0 in
      while List.length !searches_list < q1 && !search < (2 * q1) + 5 do
        incr search;
        let ts = terminals cfg ~search:!search g ~k in
        match exact_or_none g ts with
        | Some r ->
          searches_list := ts :: !searches_list;
          exact_list := r :: !exact_list
        | None -> ()
      done;
      let searches = Array.of_list (List.rev !searches_list) in
      let exact = Array.of_list (List.rev !exact_list) in
      if Array.length searches < q1 then
        Printf.printf "(only %d of %d searches had tractable exact R)\n"
          (Array.length searches) q1;
      if Array.length searches > 0 then begin
        let eval name f =
          let estimates =
            Array.mapi
              (fun i ts ->
                Array.init q2 (fun j ->
                    let seed = cfg.seed + (7919 * ((i * q2) + j)) in
                    f ~seed ts))
              searches
          in
          Printf.printf "%-4d %-14s %14.3e %12.4f\n" k name
            (Relstats.variance ~exact ~estimates)
            (Relstats.error_rate ~exact ~estimates)
        in
        eval "Pro(MC)" (fun ~seed ts ->
            (fst (run_pro cfg ~s ~w ~seed g ts)).R.value);
        eval "Pro(HT)" (fun ~seed ts ->
            (fst (run_pro cfg ~estimator:S.Horvitz_thompson ~s ~w ~seed g ts)).R.value);
        eval "Sampling(MC)" (fun ~seed ts -> fst (run_sampling ~s ~seed g ts));
        eval "Sampling(HT)" (fun ~seed ts ->
            fst (run_sampling ~estimator:S.Horvitz_thompson ~s ~seed g ts))
      end;
      print_newline ())
    ks

let table3 cfg =
  accuracy_table cfg ~title:"Table 3: accuracy on the Karate dataset"
    ~note:"Paper shape: Pro matches or beats Sampling on both variance and\n\
           error rate; MC and HT are close (sampling with replacement)."
    ~dataset:(D.karate ~seed:cfg.seed ())

let table4 cfg =
  accuracy_table cfg ~title:"Table 4: accuracy on the Am-Rv dataset"
    ~note:"Paper shape: Pro is EXACT on Am-Rv (zero variance and error);\n\
           plain sampling degrades badly as k grows because R is tiny."
    ~dataset:(D.am_rv ~seed:cfg.seed ())

(* ---- Table 5: effect of the extension technique ---- *)

(* The result object of a "preprocess" stats document. *)
let preprocess_result = function
  | P.Trivial r -> SD.result_value ~value:(Xprob.to_float_approx r) ~exact:true
  | P.Reduced { stats; _ } ->
    J.Obj
      [ ("reduction_ratio", J.Float (P.reduction_ratio stats));
        ("subproblems", J.Int stats.P.n_subproblems);
        ("bridges", J.Int stats.P.n_bridges) ]

let table5 cfg =
  banner "Table 5: extension technique (preprocess time, reduced size)"
    "Paper shape: preprocessing is orders of magnitude cheaper than the\n\
     reliability computation; road networks shrink the most, protein\n\
     networks barely.";
  let k = 10 in
  Printf.printf "%-8s %14s %16s %12s %12s\n" "Dataset" "Process time"
    "Reduced size" "#subprob" "#bridges";
  let stats_docs = ref [] in
  let tr = section_trace cfg in
  List.iter
    (fun (d : D.t) ->
      let g = d.D.graph in
      let ts = terminals cfg ~search:1 g ~k in
      (if cfg.json || cfg.trace then
         let docs =
           stats_runs cfg ~method_name:"preprocess" ~graph:d.D.abbr ~ts ~s:0
             ~w:0 ~trace:tr
             (fun ~obs ~trace ->
               preprocess_result (P.run ~obs ~trace g ~terminals:ts))
         in
         if cfg.json then
           List.iter (fun doc -> stats_docs := doc :: !stats_docs) docs);
      let outcome, dt = Relstats.time (fun () -> P.run g ~terminals:ts) in
      match outcome with
      | P.Trivial _ ->
        Printf.printf "%-8s %14s %16s %12s %12s\n" d.D.abbr
          (Relstats.format_seconds dt) "trivial" "-" "-"
      | P.Reduced { stats; _ } ->
        Printf.printf "%-8s %14s %16.3f %12d %12d\n" d.D.abbr
          (Relstats.format_seconds dt)
          (P.reduction_ratio stats)
          stats.P.n_subproblems stats.P.n_bridges)
    (D.all ~seed:cfg.seed ~scale:cfg.scale ());
  emit_json cfg ~section:"table5" ~trace:tr (List.rev !stats_docs)

(* ---- Ablation A1: edge ordering ---- *)

let ablation_ordering cfg =
  banner "Ablation A1: edge-ordering strategies (DESIGN.md section 4)"
    "The S2BDD's bounds depend on when each terminal's edges are decided;\n\
     multi-source BFS from the terminals (`Auto`) tightens them fastest.";
  let s = if cfg.quick then 1_000 else 10_000 in
  let w = 1_000 in
  let k = 10 in
  let datasets =
    [ D.tokyo ~seed:(cfg.seed + 3) ~scale:cfg.scale ();
      D.dblp1 ~seed:(cfg.seed + 1) ~scale:cfg.scale () ]
  in
  Printf.printf "%-8s %-16s %12s %12s %10s\n" "Dataset" "Ordering" "time"
    "bound gap" "s'/s";
  List.iter
    (fun (d : D.t) ->
      let g = d.D.graph in
      let ts = terminals cfg ~search:1 g ~k in
      let strategies =
        [ ("terminal-bfs", `Auto); ("bfs", `Strategy O.Bfs);
          ("dfs", `Strategy O.Dfs); ("natural", `Strategy O.Natural);
          ("random", `Strategy (O.Random 7)) ]
      in
      List.iter
        (fun (name, order) ->
          let config =
            { (s2_config cfg ~s ~w ~estimator:S.Monte_carlo ~seed:cfg.seed) with
              S.order = (order :> [ `Auto | `Strategy of O.strategy | `Explicit of int array ]) }
          in
          let rep, dt =
            Relstats.time (fun () ->
                R.estimate ~config ~extension:false g ~terminals:ts)
          in
          Printf.printf "%-8s %-16s %12s %12.2e %10.3f\n" d.D.abbr name
            (Relstats.format_seconds dt)
            (rep.R.upper -. rep.R.lower)
            (float_of_int rep.R.s_reduced /. float_of_int (max 1 rep.R.s_given)))
        strategies;
      print_newline ())
    datasets

(* ---- Ablation A2: early-sink lemmas ---- *)

let ablation_lemmas cfg =
  banner "Ablation A2: Lemma 4.1/4.2 eager sinking on vs off"
    "Eager sinking resolves states mid-layer instead of waiting for\n\
     frontier departures: smaller layers and earlier bounds at identical\n\
     exact results.";
  let s = 1_000 in
  let w = 1_000 in
  let k = 10 in
  let datasets =
    [ D.karate ~seed:cfg.seed (); D.am_rv ~seed:cfg.seed ();
      D.tokyo ~seed:(cfg.seed + 3) ~scale:(cfg.scale *. 0.25) () ]
  in
  Printf.printf "%-8s %-8s %12s %12s %12s\n" "Dataset" "Eager" "time"
    "bound gap" "max width";
  List.iter
    (fun (d : D.t) ->
      let g = d.D.graph in
      let ts = terminals cfg ~search:1 g ~k in
      List.iter
        (fun eager ->
          let config =
            { (s2_config cfg ~s ~w ~estimator:S.Monte_carlo ~seed:cfg.seed) with
              S.eager }
          in
          let rep, dt =
            Relstats.time (fun () ->
                R.estimate ~config ~extension:false g ~terminals:ts)
          in
          let sub = List.hd rep.R.subresults in
          Printf.printf "%-8s %-8b %12s %12.2e %12d\n" d.D.abbr eager
            (Relstats.format_seconds dt)
            (rep.R.upper -. rep.R.lower)
            sub.S.max_width)
        [ true; false ];
      print_newline ())
    datasets

(* ---- Ablation A3: deletion heuristic ---- *)

let ablation_heuristic cfg =
  banner "Ablation A3: Equation-(10) deletion heuristic vs random deletion"
    "The heuristic keeps nodes likely to reach a sink, so the bounds\n\
     (and hence Theorem-1 sample reduction) are tighter than with\n\
     random deletion at the same width.";
  let s = 1_000 in
  let k = 10 in
  let g = (D.karate ~seed:cfg.seed ()).D.graph in
  let ts = terminals cfg ~search:1 g ~k in
  Printf.printf "%-10s %-10s %12s %10s\n" "Width" "Heuristic" "bound gap" "s'/s";
  List.iter
    (fun w ->
      List.iter
        (fun (name, heuristic) ->
          let config =
            { (s2_config cfg ~s ~w ~estimator:S.Monte_carlo ~seed:cfg.seed) with
              S.heuristic }
          in
          let rep =
            R.estimate ~config ~extension:false g ~terminals:ts
          in
          Printf.printf "%-10d %-10s %12.4f %10.3f\n" w name
            (rep.R.upper -. rep.R.lower)
            (float_of_int rep.R.s_reduced /. float_of_int (max 1 rep.R.s_given)))
        [ ("paper", S.Paper_heuristic); ("random", S.Random_deletion) ];
      print_newline ())
    [ 8; 32; 128 ]

(* ---- Ablation A4: exact methods head-to-head ---- *)

let ablation_exact cfg =
  banner "Ablation A4: exact computation methods on small graphs"
    "The paper claims the S2BDD computes the exact answer on small graphs\n\
     (which sampling never can); brute force, the full BDD, the factoring\n\
     algorithm (Eq. 12 + reductions) and a wide S2BDD must agree exactly.";
  let datasets = [ D.karate ~seed:cfg.seed (); D.am_rv ~seed:cfg.seed () ] in
  Printf.printf "%-8s %-3s %12s %12s %12s %12s %10s\n" "Dataset" "k" "BDD"
    "Factoring" "S2BDD" "value" "agree";
  List.iter
    (fun (d : D.t) ->
      let g = d.D.graph in
      List.iter
        (fun k ->
          let ts = terminals cfg ~search:1 g ~k in
          let bdd, bdd_t =
            Relstats.time (fun () ->
                match R.exact g ~terminals:ts with
                | Ok r -> r
                | Error _ -> nan)
          in
          let fact, fact_t =
            Relstats.time (fun () ->
                match
                  Bddbase.Factoring.reliability_float
                    ~call_budget:(if cfg.quick then 50_000 else 500_000)
                    g ~terminals:ts
                with
                | Ok r -> r
                | Error (`Budget_exceeded _) -> nan)
          in
          let s2, s2_t =
            Relstats.time (fun () ->
                (* Width-minimising order: for an exact run the bounds
                   do not matter, only the BDD width does. *)
                let config =
                  { S.default_config with S.width = 1 lsl 17;
                    S.order = `Explicit (O.best_order g) }
                in
                let rep = R.estimate ~config ~extension:false g ~terminals:ts in
                if rep.R.exact then rep.R.value else nan)
          in
          let agree a b =
            Float.is_nan a || Float.is_nan b || Float.abs (a -. b) <= 1e-9
          in
          Printf.printf "%-8s %-3d %12s %12s %12s %12.5g %10b\n" d.D.abbr k
            (Relstats.format_seconds bdd_t)
            (if Float.is_nan fact then "budget" else Relstats.format_seconds fact_t)
            (Relstats.format_seconds s2_t)
            bdd
            (agree bdd fact && agree bdd s2 && agree fact s2))
        [ 2; 5 ];
      print_newline ())
    datasets

(* ---- Parallel: domain-pool speedup and determinism ---- *)

let parallel cfg =
  banner "Parallel: sequential vs parallel sampling (Par domain pool)"
    (Printf.sprintf
       "Determinism contract: for a fixed seed every estimate is bit-identical\n\
        at every jobs value (per-chunk Prng.split streams, ordered reduction),\n\
        so `= seq` must read true on every row. Speedup tracks the host's\n\
        core count (this host reports %d domains; a single-core host shows ~1.0x)."
       (Par.default_jobs ()));
  let s = if cfg.quick then 10_000 else 40_000 in
  let w = if cfg.quick then 64 else 1_000 in
  let k = 10 in
  let jobs_list = [ 1; 2; 4 ] in
  let datasets =
    if cfg.quick then [ D.karate ~seed:cfg.seed () ]
    else D.large ~seed:cfg.seed ~scale:cfg.scale ()
  in
  let stats_docs = ref [] in
  let tr = section_trace cfg in
  List.iter
    (fun (d : D.t) ->
      let g = d.D.graph in
      let ts = terminals cfg ~search:1 g ~k in
      Printf.printf "--- %s (s = %d, w = %d, k = %d) ---\n" d.D.abbr s w k;
      Printf.printf "%-13s %5s %14s %10s %8s %-16s %6s\n" "Method" "jobs" "R"
        "time" "speedup" "chunks x samples" "= seq";
      let bench name f =
        let base_v = ref nan and base_t = ref nan in
        List.iter
          (fun jobs ->
            let (v, work), dt = Relstats.time (fun () -> f jobs) in
            if jobs = 1 then begin
              base_v := v;
              base_t := dt
            end;
            Printf.printf "%-13s %5d %14.8f %10s %7.1fx %-16s %6b\n" name jobs v
              (Relstats.format_seconds dt)
              (!base_t /. dt) work
              (Float.equal v !base_v))
          jobs_list;
        print_newline ()
      in
      (* Per-worker sample counts: the chunk layout depends only on the
         total sample budget, never on jobs, so the column repeats. *)
      let chunk_layout cs =
        let n = Array.length cs in
        if n = 0 then "-"
        else begin
          let mn = Array.fold_left min max_int cs
          and mx = Array.fold_left max 0 cs in
          if mn = mx then Printf.sprintf "%d x %d" n mn
          else Printf.sprintf "%d x %d..%d" n mn mx
        end
      in
      bench "Sampling(MC)" (fun jobs ->
          let e = Mcsampling.monte_carlo ~seed:cfg.seed ~jobs g ~terminals:ts ~samples:s in
          (e.Mcsampling.value, chunk_layout e.Mcsampling.chunk_samples));
      bench "Sampling(HT)" (fun jobs ->
          let e =
            Mcsampling.horvitz_thompson ~seed:cfg.seed ~jobs g ~terminals:ts ~samples:s
          in
          (e.Mcsampling.value, chunk_layout e.Mcsampling.chunk_samples));
      bench "Pro(MC)" (fun jobs ->
          let config = s2_config cfg ~s ~w ~estimator:S.Monte_carlo ~seed:cfg.seed in
          let rep = R.estimate ~config ~jobs g ~terminals:ts in
          (rep.R.value, Printf.sprintf "drawn = %d" rep.R.samples_drawn));
      if cfg.json || cfg.trace then begin
        let add docs =
          if cfg.json then
            List.iter (fun doc -> stats_docs := doc :: !stats_docs) docs
        in
        add
          (stats_runs cfg ~method_name:"sampling-mc" ~graph:d.D.abbr ~ts ~s ~w
             ~trace:tr
             (fun ~obs ~trace ->
               SD.result_of_estimate
                 (Mcsampling.monte_carlo ~obs ~trace ~seed:cfg.seed ~jobs:1 g
                    ~terminals:ts ~samples:s)));
        add
          (stats_runs cfg ~method_name:"sampling-ht" ~graph:d.D.abbr ~ts ~s ~w
             ~trace:tr
             (fun ~obs ~trace ->
               SD.result_of_estimate
                 (Mcsampling.horvitz_thompson ~obs ~trace ~seed:cfg.seed ~jobs:1
                    g ~terminals:ts ~samples:s)));
        add
          (stats_runs cfg ~method_name:"pro" ~graph:d.D.abbr ~ts ~s ~w ~trace:tr
             (fun ~obs ~trace ->
               let config =
                 s2_config cfg ~s ~w ~estimator:S.Monte_carlo ~seed:cfg.seed
               in
               SD.result_of_report
                 (R.estimate ~obs ~trace ~config ~jobs:1 g ~terminals:ts)))
      end)
    datasets;
  emit_json cfg ~section:"parallel" ~trace:tr (List.rev !stats_docs)

(* ---- Kernels: flat sampling fast path vs retained reference ---- *)

(* A kernel-path stats document must carry the throughput counters the
   README points readers at; a silent instrumentation regression would
   otherwise leave BENCH_kernels.json claiming nothing. *)
let assert_kernel_counters ~method_name doc =
  let missing what =
    failwith
      (Printf.sprintf "stats doc for %s missing %s" method_name what)
  in
  match J.member "sampling" doc with
  | None -> missing "sampling"
  | Some sampling -> (
    match J.member "kernel" sampling with
    | None -> missing "sampling.kernel"
    | Some kern ->
      if J.member "samples" kern = None then missing "sampling.kernel.samples";
      if J.member "samples_per_sec" kern = None then
        missing "sampling.kernel.samples_per_sec")

let kernels cfg =
  banner "Kernels: flat sampling fast path vs retained reference"
    "Same seed, same chunk layout, same Prng streams: `= ref` must read\n\
     true on every row (the kernel is a bit-identical fast path through\n\
     CSR arrays, packed mask words and an early-exit union-find, not a\n\
     different estimator). Speedup = reference time / kernel time at\n\
     jobs = 1; samples/s is the kernel-path throughput, recorded in\n\
     BENCH_kernels.json under sampling.kernel.samples_per_sec.";
  let s = if cfg.quick then 10_000 else 40_000 in
  let k = 10 in
  let datasets =
    let karate = D.karate ~seed:cfg.seed () in
    if cfg.quick then [ karate ]
    else karate :: D.large ~seed:cfg.seed ~scale:cfg.scale ()
  in
  let stats_docs = ref [] in
  let tr = section_trace cfg in
  List.iter
    (fun (d : D.t) ->
      let g = d.D.graph in
      let ts = terminals cfg ~search:1 g ~k in
      Printf.printf "--- %s (s = %d, k = %d, jobs = 1) ---\n" d.D.abbr s k;
      Printf.printf "%-13s %14s %10s %10s %8s %11s %6s\n" "Method" "R"
        "reference" "kernel" "speedup" "samples/s" "= ref";
      let row name reference kernel =
        let re, rt = Relstats.time reference in
        let ke, kt = Relstats.time kernel in
        Printf.printf "%-13s %14.8f %10s %10s %7.1fx %11.0f %6b\n" name
          ke.Mcsampling.value
          (Relstats.format_seconds rt)
          (Relstats.format_seconds kt)
          (rt /. kt)
          (if kt > 0. then float_of_int s /. kt else 0.)
          (re = ke)
      in
      row "Sampling(MC)"
        (fun () ->
          Check.Reference.monte_carlo ~seed:cfg.seed g ~terminals:ts
            ~samples:s)
        (fun () ->
          Mcsampling.monte_carlo ~seed:cfg.seed ~jobs:1 g ~terminals:ts
            ~samples:s);
      row "Sampling(HT)"
        (fun () ->
          Check.Reference.horvitz_thompson ~seed:cfg.seed g ~terminals:ts
            ~samples:s)
        (fun () ->
          Mcsampling.horvitz_thompson ~seed:cfg.seed ~jobs:1 g ~terminals:ts
            ~samples:s);
      print_newline ();
      if cfg.json || cfg.trace then begin
        let add docs =
          if cfg.json then
            List.iter (fun doc -> stats_docs := doc :: !stats_docs) docs
        in
        let kernel_doc method_name f =
          let docs =
            stats_runs cfg ~method_name ~graph:d.D.abbr ~ts ~s ~w:0 ~trace:tr f
          in
          List.iter (assert_kernel_counters ~method_name) docs;
          add docs
        in
        kernel_doc "kernel-mc" (fun ~obs ~trace ->
            SD.result_of_estimate
              (Mcsampling.monte_carlo ~obs ~trace ~seed:cfg.seed ~jobs:1 g
                 ~terminals:ts ~samples:s));
        kernel_doc "kernel-ht" (fun ~obs ~trace ->
            SD.result_of_estimate
              (Mcsampling.horvitz_thompson ~obs ~trace ~seed:cfg.seed ~jobs:1
                 g ~terminals:ts ~samples:s));
        (* Reference rows carry wall time only (the reference paths are
           deliberately uninstrumented); they give the JSON file its
           before/after pair per dataset. *)
        add
          (stats_runs cfg ~method_name:"reference-mc" ~graph:d.D.abbr ~ts ~s
             ~w:0 ~trace:tr
             (fun ~obs:_ ~trace:_ ->
               SD.result_of_estimate
                 (Check.Reference.monte_carlo ~seed:cfg.seed g
                    ~terminals:ts ~samples:s)));
        add
          (stats_runs cfg ~method_name:"reference-ht" ~graph:d.D.abbr ~ts ~s
             ~w:0 ~trace:tr
             (fun ~obs:_ ~trace:_ ->
               SD.result_of_estimate
                 (Check.Reference.horvitz_thompson ~seed:cfg.seed g
                    ~terminals:ts ~samples:s)))
      end)
    datasets;
  emit_json cfg ~section:"kernels" ~trace:tr (List.rev !stats_docs)

(* ---- Bitsliced: 62-world bit-parallel sampling vs the flat kernel ---- *)

(* The bitsliced rows must also prove which kernel actually ran: a stats
   document that silently fell back to the flat path would make the
   throughput comparison meaningless, so sampling.kernel.mode is read
   back and matched against the requested mode. *)
let assert_kernel_mode ~method_name ~expect doc =
  match J.member "sampling" doc with
  | None -> failwith (Printf.sprintf "stats doc for %s missing sampling" method_name)
  | Some sampling -> (
    match J.member "kernel" sampling with
    | None ->
      failwith (Printf.sprintf "stats doc for %s missing sampling.kernel" method_name)
    | Some kern -> (
      match J.member "mode" kern with
      | Some (J.Str m) when m = expect -> ()
      | Some (J.Str m) ->
        failwith
          (Printf.sprintf "stats doc for %s: sampling.kernel.mode = %S, expected %S"
             method_name m expect)
      | _ ->
        failwith
          (Printf.sprintf "stats doc for %s missing sampling.kernel.mode" method_name)))

let bitsliced cfg =
  banner "Bitsliced: 62-world bit-parallel sampling vs the flat kernel"
    "One Bitbatch draw fills a 62-lane slab word per edge; one bit-parallel\n\
     reachability search over the adjacency answers all 62 worlds. Estimates\n\
     are statistically exchangeable with the flat kernel but NOT\n\
     bit-identical (each mode owns its stream discipline; bit-identity\n\
     holds across jobs within a mode only).\n\
     Speedup = flat time / bitsliced time at jobs = 1; both modes'\n\
     sampling.kernel.{mode,samples_per_sec} land in BENCH_bitsliced.json.";
  let s = if cfg.quick then 10_000 else 40_000 in
  let k = 10 in
  let datasets =
    let karate = D.karate ~seed:cfg.seed () in
    if cfg.quick then [ karate ]
    else karate :: D.large ~seed:cfg.seed ~scale:cfg.scale ()
  in
  let stats_docs = ref [] in
  let tr = section_trace cfg in
  List.iter
    (fun (d : D.t) ->
      let g = d.D.graph in
      let ts = terminals cfg ~search:1 g ~k in
      Printf.printf "--- %s (s = %d, k = %d, jobs = 1) ---\n" d.D.abbr s k;
      Printf.printf "%-13s %14s %14s %10s %10s %8s %11s\n" "Method" "R flat"
        "R bitsliced" "flat" "bitsliced" "speedup" "samples/s";
      let row name flat bits =
        let fe, ft = Relstats.time flat in
        let be, bt = Relstats.time bits in
        Printf.printf "%-13s %14.8f %14.8f %10s %10s %7.1fx %11.0f\n" name
          fe.Mcsampling.value be.Mcsampling.value
          (Relstats.format_seconds ft)
          (Relstats.format_seconds bt)
          (ft /. bt)
          (if bt > 0. then float_of_int s /. bt else 0.)
      in
      row "Sampling(MC)"
        (fun () ->
          Mcsampling.monte_carlo ~seed:cfg.seed ~jobs:1 g ~terminals:ts
            ~samples:s)
        (fun () ->
          Mcsampling.monte_carlo ~seed:cfg.seed ~jobs:1
            ~kernel:Mcsampling.Bitsliced g ~terminals:ts ~samples:s);
      row "Sampling(HT)"
        (fun () ->
          Mcsampling.horvitz_thompson ~seed:cfg.seed ~jobs:1 g ~terminals:ts
            ~samples:s)
        (fun () ->
          Mcsampling.horvitz_thompson ~seed:cfg.seed ~jobs:1
            ~kernel:Mcsampling.Bitsliced g ~terminals:ts ~samples:s);
      print_newline ();
      if cfg.json || cfg.trace then begin
        let add docs =
          if cfg.json then
            List.iter (fun doc -> stats_docs := doc :: !stats_docs) docs
        in
        let mode_doc method_name ~kernel ~expect run =
          let docs =
            stats_runs cfg ~method_name ~graph:d.D.abbr ~ts ~s ~w:0 ~trace:tr
              (fun ~obs ~trace -> SD.result_of_estimate (run ~obs ~trace ~kernel))
          in
          List.iter
            (fun doc ->
              assert_kernel_counters ~method_name doc;
              assert_kernel_mode ~method_name ~expect doc)
            docs;
          add docs
        in
        let mc ~obs ~trace ~kernel =
          Mcsampling.monte_carlo ~obs ~trace ~seed:cfg.seed ~jobs:1 ~kernel g
            ~terminals:ts ~samples:s
        and ht ~obs ~trace ~kernel =
          Mcsampling.horvitz_thompson ~obs ~trace ~seed:cfg.seed ~jobs:1
            ~kernel g ~terminals:ts ~samples:s
        in
        mode_doc "flat-mc" ~kernel:Mcsampling.Flat ~expect:"flat" mc;
        mode_doc "bitsliced-mc" ~kernel:Mcsampling.Bitsliced ~expect:"bitsliced" mc;
        mode_doc "flat-ht" ~kernel:Mcsampling.Flat ~expect:"flat" ht;
        mode_doc "bitsliced-ht" ~kernel:Mcsampling.Bitsliced ~expect:"bitsliced" ht
      end)
    datasets;
  emit_json cfg ~section:"bitsliced" ~trace:tr (List.rev !stats_docs)

(* ---- Adaptive: sequential stopping vs fixed sample budgets ---- *)

(* An adaptive stats document must prove the driver actually ran the
   stopping loop: the "adaptive" phase has to carry the round/budget
   counters and the width gauges the README points readers at. *)
let assert_adaptive_counters ~method_name doc =
  match J.member "adaptive" doc with
  | None ->
    failwith (Printf.sprintf "stats doc for %s missing adaptive" method_name)
  | Some a ->
    List.iter
      (fun k ->
        if J.member k a = None then
          failwith
            (Printf.sprintf "stats doc for %s missing adaptive.%s" method_name k))
      [ "rounds"; "samples_planned"; "samples_used"; "ci_width"; "target_width" ]

let adaptive cfg =
  banner "Adaptive: sequential stopping vs fixed sample budgets"
    "Each method draws in rounds until the 95% Wilson interval is no wider\n\
     than the target; `samples` is what the stopping rule actually spent\n\
     vs the fixed 10k default budget. Paper shape: Pro reaches the target\n\
     width with far fewer descents than plain sampling (the proven bounds\n\
     shrink the unresolved mass), and for a fixed seed every row is\n\
     bit-identical at every jobs value.";
  let width = if cfg.quick then 0.02 else 0.01 in
  let cap = if cfg.quick then 200_000 else Adaptive.default_max_samples in
  let fixed = 10_000 in
  let k = 10 in
  let datasets =
    let karate = D.karate ~seed:cfg.seed () in
    if cfg.quick then [ karate ]
    else karate :: D.large ~seed:cfg.seed ~scale:cfg.scale ()
  in
  let stats_docs = ref [] in
  let tr = section_trace cfg in
  List.iter
    (fun (d : D.t) ->
      let g = d.D.graph in
      let ts = terminals cfg ~search:1 g ~k in
      Printf.printf "--- %s (target width = %g, cap = %d, k = %d) ---\n"
        d.D.abbr width cap k;
      Printf.printf "%-13s %14s %10s %9s %7s %-14s %10s %8s\n" "Method" "R"
        "width" "samples" "rounds" "stop" "time" "vs 10k";
      let row name run =
        let r, dt = Relstats.time run in
        Printf.printf "%-13s %14.8f %10.2e %9d %7d %-14s %10s %7.2fx\n" name
          r.Adaptive.value r.Adaptive.ci_width r.Adaptive.samples_used
          r.Adaptive.rounds
          (Adaptive.stop_name r.Adaptive.stop)
          (Relstats.format_seconds dt)
          (float_of_int r.Adaptive.samples_used /. float_of_int fixed);
        r
      in
      let _ =
        row "Sampling(MC)" (fun () ->
            Adaptive.monte_carlo ~seed:cfg.seed ~jobs:1 g ~terminals:ts
              ~ci_width:width ~max_samples:cap)
      in
      let _ =
        row "Sampling(HT)" (fun () ->
            Adaptive.horvitz_thompson ~seed:cfg.seed ~jobs:1 g ~terminals:ts
              ~ci_width:width ~max_samples:cap)
      in
      let _ =
        row "Pro(MC)" (fun () ->
            let config =
              s2_config cfg ~s:fixed ~w:(if cfg.quick then 64 else 1_000)
                ~estimator:S.Monte_carlo ~seed:cfg.seed
            in
            Adaptive.reliability ~config ~jobs:1 g ~terminals:ts
              ~ci_width:width ~max_samples:cap)
      in
      print_newline ();
      if cfg.json || cfg.trace then begin
        let add docs =
          if cfg.json then
            List.iter (fun doc -> stats_docs := doc :: !stats_docs) docs
        in
        let adaptive_doc method_name run =
          let docs =
            stats_runs cfg ~method_name ~graph:d.D.abbr ~ts ~s:cap ~w:0
              ~trace:tr
              (fun ~obs ~trace ->
                Engine.result_json (Engine.Stopped (run ~obs ~trace)))
          in
          List.iter (assert_adaptive_counters ~method_name) docs;
          add docs
        in
        adaptive_doc "adaptive-mc" (fun ~obs ~trace ->
            Adaptive.monte_carlo ~obs ~trace ~seed:cfg.seed ~jobs:1 g
              ~terminals:ts ~ci_width:width ~max_samples:cap);
        adaptive_doc "adaptive-ht" (fun ~obs ~trace ->
            Adaptive.horvitz_thompson ~obs ~trace ~seed:cfg.seed ~jobs:1 g
              ~terminals:ts ~ci_width:width ~max_samples:cap);
        adaptive_doc "adaptive-pro" (fun ~obs ~trace ->
            let config =
              s2_config cfg ~s:fixed ~w:(if cfg.quick then 64 else 1_000)
                ~estimator:S.Monte_carlo ~seed:cfg.seed
            in
            Adaptive.reliability ~obs ~trace ~config ~jobs:1 g ~terminals:ts
              ~ci_width:width ~max_samples:cap)
      end)
    datasets;
  emit_json cfg ~section:"adaptive" ~trace:tr (List.rev !stats_docs)

(* ---- batch: the amortized multi-query engine vs from-scratch ---- *)

let batch cfg =
  banner "Batch: amortized multi-query engine vs from-scratch"
    "The workload behind `netrel batch`/`serve`: 16 queries (4 distinct,\n\
     each repeated 4 times) against one graph. The engine builds the\n\
     graph context, Csr snapshot and per-terminal-set preprocessing once\n\
     and memoizes full results, so repeats are near-free; every answer\n\
     is asserted bit-identical to the from-scratch estimate. The section\n\
     fails if the cache counters do not prove the amortization or the\n\
     per-query speedup falls below the floor.";
  let d = D.karate ~seed:cfg.seed () in
  let g = d.D.graph in
  let s_pro = if cfg.quick then 3_000 else 10_000 in
  let w = if cfg.quick then 64 else 1_000 in
  let s_mc = if cfg.quick then 2_000 else 10_000 in
  let distinct =
    [
      { Engine.default with Engine.terminals = [ 0; 33 ]; samples = s_pro;
        width = w; seed = cfg.seed };
      { Engine.default with Engine.terminals = [ 0; 33 ];
        method_ = Engine.Sampling_mc; samples = s_mc; seed = cfg.seed };
      { Engine.default with Engine.terminals = [ 0; 16; 33 ];
        samples = s_pro; width = w; ci_width = Some 0.02;
        max_samples = Some 100_000; seed = cfg.seed };
      { Engine.default with Engine.terminals = [ 0; 33 ];
        method_ = Engine.Sampling_ht; samples = s_mc; seed = cfg.seed };
    ]
  in
  let queries = List.concat (List.init 4 (fun _ -> distinct)) in
  let n = List.length queries in
  let timed f x =
    let t0 = Relstats.now_monotonic () in
    let r = f x in
    (r, Relstats.now_monotonic () -. t0)
  in
  let counter eng k = List.assoc k (Engine.counters eng) in
  (* One round: the 16 queries through a fresh engine, then from scratch
     through [Engine.estimate], the path [netrel estimate] runs. Each
     side is timed as its best of three interleaved rounds, since one
     stall of the host dominates a total of a few tens of
     milliseconds; the printed rows and the JSON documents are round
     1's. *)
  let round () =
    let eng = Engine.create ~obs:(Obs.create ()) () in
    let served =
      List.map
        (fun q ->
          let a, dt = timed (Engine.query eng g) q in
          (q, a, dt))
        queries
    in
    let scratch =
      List.map (timed (fun q -> Engine.result_json (Engine.estimate g q)))
        queries
    in
    List.iter2
      (fun (_, (a : Engine.answer), _) (r, _) ->
        let a_s = J.to_string ~pretty:false a.Engine.result
        and r_s = J.to_string ~pretty:false r in
        if a_s <> r_s then
          failwith
            (Printf.sprintf "batch: engine answer %s diverged from \
                             from-scratch %s" a_s r_s))
      served scratch;
    let c = counter eng in
    if
      c "queries" <> n || c "graph.miss" <> 1 || c "csr.miss" > 1
      || c "prep.miss" <> 2
      || c "result.miss" <> List.length distinct
      || c "result.hit" <> n - List.length distinct
    then failwith "batch: cache counters do not prove the amortization";
    (eng, served, scratch)
  in
  let rounds = List.init 3 (fun _ -> round ()) in
  let eng, served, scratch = List.hd rounds in
  let best side =
    List.fold_left
      (fun acc r -> Float.min acc (List.fold_left ( +. ) 0. (side r)))
      infinity rounds
  in
  let engine_dt = best (fun (_, e, _) -> List.map (fun (_, _, dt) -> dt) e)
  and scratch_dt = best (fun (_, _, s) -> List.map snd s) in
  Printf.printf "%-13s %-10s %14s %12s %12s\n" "Method" "Terminals" "R"
    "engine" "scratch";
  List.iter2
    (fun (q, (a : Engine.answer), edt) (_, sdt) ->
      Printf.printf "%-13s %-10s %14.8f %12s %12s%s\n" a.Engine.method_name
        (String.concat "," (List.map string_of_int q.Engine.terminals))
        a.Engine.value
        (Relstats.format_seconds edt)
        (Relstats.format_seconds sdt)
        (if a.Engine.cached then "  (memo hit)" else ""))
    served scratch;
  let c = counter eng in
  Printf.printf
    "\nengine counters: queries=%d graph hit/miss=%d/%d csr=%d/%d \
     prep=%d/%d result=%d/%d\n"
    (c "queries") (c "graph.hit") (c "graph.miss") (c "csr.hit")
    (c "csr.miss") (c "prep.hit") (c "prep.miss") (c "result.hit")
    (c "result.miss");
  let speedup = scratch_dt /. engine_dt in
  Printf.printf
    "total: engine %s vs scratch %s for %d queries -> per-query %s vs %s \
     (%.1fx)\n"
    (Relstats.format_seconds engine_dt)
    (Relstats.format_seconds scratch_dt)
    n
    (Relstats.format_seconds (engine_dt /. float_of_int n))
    (Relstats.format_seconds (scratch_dt /. float_of_int n))
    speedup;
  (* The amortization floor: 12 of 16 queries are memo hits, so the
     engine does a quarter of the work plus cache lookups. The quick
     (tier-1 smoke) floor is looser to absorb CI noise. *)
  let floor = if cfg.quick then 2.0 else 3.0 in
  if speedup < floor then
    failwith
      (Printf.sprintf "batch: amortized speedup %.2fx below the %gx floor"
         speedup floor);
  if cfg.json then begin
    let doc_of ~method_name ~seconds ~terminals ~samples ~result ~obs =
      let run_meta =
        { SD.command = "bench"; method_ = method_name; graph = d.D.abbr;
          terminals; seed = cfg.seed; jobs = 1; samples; width = w }
      in
      SD.build ~obs ~run:run_meta ~seconds ~result
    in
    let engine_docs =
      List.map
        (fun (q, (a : Engine.answer), dt) ->
          doc_of
            ~method_name:("batch-" ^ a.Engine.method_name)
            ~seconds:dt ~terminals:q.Engine.terminals
            ~samples:q.Engine.samples ~result:a.Engine.result ~obs:a.Engine.obs)
        served
    in
    (* One from-scratch document per distinct query, for the latency
       baseline the committed BENCH file records. *)
    let scratch_docs =
      List.map
        (fun q ->
          stats_run cfg
            ~method_name:("scratch-" ^ Engine.method_name q.Engine.method_)
            ~graph:d.D.abbr ~ts:q.Engine.terminals ~s:q.Engine.samples ~w
            ~trace:Trace.disabled
            (fun ~obs ~trace:_ ->
              Engine.result_json (Engine.estimate ~obs g q)))
        distinct
    in
    emit_json cfg ~section:"batch" (engine_docs @ scratch_docs)
  end

(* ---- Large: the 10^5..10^6-edge scale-out trajectory ---- *)

(* Pro on the large graphs: the perfbench sample-large settings
   (w = 1,000, s = 200), so preprocessing and construction run at the
   scale the serve benchmark queries. *)
let large_pro_config cfg =
  s2_config cfg ~s:200 ~w:1_000 ~estimator:S.Monte_carlo ~seed:cfg.seed

let check_pro_bounds ~graph (rep : R.report) =
  if not (rep.R.lower <= rep.R.value && rep.R.value <= rep.R.upper) then
    failwith
      (Printf.sprintf "large: %s pro estimate %g outside its bounds [%g, %g]"
         graph rep.R.value rep.R.lower rep.R.upper)

(* A pro document must account for all three phases of the run. *)
let assert_pro_phases ~graph doc =
  List.iter
    (fun (phase, key) ->
      match J.member phase doc with
      | Some sub when J.member key sub <> None -> ()
      | _ ->
        failwith
          (Printf.sprintf "large: %s pro stats doc missing %s.%s" graph phase
             key))
    [ ("preprocess", "prune"); ("construction", "layers");
      ("sampling", "samples") ]

let large cfg =
  banner "Large graphs: mmap-able binary container + CSR-direct sampling"
    "Synthetic 10^5-edge (quick) to 10^6-edge graphs are packed into the\n\
     binary container (lib/bingraph), reopened with Unix.map_file and\n\
     sampled straight from the packed arrays (Kernel.Csr.of_arrays), by\n\
     MC and HT on both kernels. `= text` asserts the binary-path estimate\n\
     bit-identical to the Ugraph text path per estimator and kernel;\n\
     mmap open + CSR build time lands in run.seconds of the load-mmap\n\
     rows, the text parse of the same graph (Ugraph.of_file, the file\n\
     written beforehand) in those of the load-text rows, kernel\n\
     throughput in sampling.kernel.samples_per_sec of the mc and ht\n\
     rows.\n\
     The jobs = 2 rows run the serve benchmark's one-chunk budgets,\n\
     which a round cuts into one piece per domain; `= j1` asserts each\n\
     bit-identical to the jobs = 1 estimate.\n\
     The preprocess rows time the extension technique alone, the pro\n\
     rows a whole Pro(MC) estimate at w = 1,000, s = 200 (its value\n\
     asserted inside its proven bounds).";
  let graphs =
    if cfg.quick then
      [ ("pa-large",
         fun () ->
           G.preferential_attachment_large ~seed:cfg.seed ~n:40_000
             ~edges_per_vertex:3);
        ("geo-large",
         fun () ->
           G.random_geometric ~seed:(cfg.seed + 1) ~n:30_000
             ~radius:(sqrt (8. /. (Float.pi *. 30_000.)))) ]
    else
      [ ("pa-large",
         fun () ->
           G.preferential_attachment_large ~seed:cfg.seed ~n:300_000
             ~edges_per_vertex:3);
        ("geo-large",
         fun () ->
           G.random_geometric ~seed:(cfg.seed + 1) ~n:200_000
             ~radius:(sqrt (10. /. (Float.pi *. 200_000.)))) ]
  in
  let s = if cfg.quick then 200 else 2_000 in
  (* HT prices each distinct connected world with an O(m) fold on top of
     the draw, so it runs the perfbench sample-large HT budget. *)
  let s_ht = 62 in
  let k = 5 in
  let stats_docs = ref [] in
  let tr = section_trace cfg in
  (* The jobs = 2 rows run after every graph's jobs = 1 rows, so that
     those run as they always have, in a process whose domain pool has
     not yet spawned a worker. *)
  let split_rows = ref [] in
  List.iter
    (fun (name, gen) ->
      let g = Workload.Probability.uniform ~seed:(cfg.seed + 2) (gen ()) in
      let ts = terminals cfg ~search:1 g ~k in
      let tmp = Filename.temp_file "netrel_large_" ".nrb" in
      let tmp_text = Filename.temp_file "netrel_large_" ".txt" in
      Fun.protect
        ~finally:(fun () ->
          List.iter
            (fun f -> if Sys.file_exists f then Sys.remove f)
            [ tmp; tmp_text ])
        (fun () ->
          Bingraph.to_file tmp (Bingraph.of_graph g);
          Ugraph.to_file tmp_text g;
          let load_csr () =
            let bg = Bingraph.load tmp in
            Bingraph.validate bg;
            let eu, ev, ep = Bingraph.to_arrays bg in
            (bg, Kernel.Csr.of_arrays ~n:(Bingraph.n_vertices bg) ~eu ~ev ~ep)
          in
          let (bg, csr), load_t = Relstats.time load_csr in
          Printf.printf
            "--- %s (n = %d, m = %d, s = %d, HT s = %d, k = %d, jobs = 1) ---\n"
            name (Bingraph.n_vertices bg) (Bingraph.n_edges bg) s s_ht k;
          Printf.printf "mmap open + CSR build: %s\n"
            (Relstats.format_seconds load_t);
          let text_g, text_t = Relstats.time (fun () -> Ugraph.of_file tmp_text) in
          if Bingraph.Digest.of_graph text_g <> Bingraph.digest bg then
            failwith
              (Printf.sprintf "large: %s read back from text differs" name);
          Printf.printf "text parse + CSR build: %s\n"
            (Relstats.format_seconds text_t);
          Printf.printf "%-15s %14s %10s %11s %7s\n" "Method" "R" "time"
            "samples/s" "= text";
          (* [sample None] runs on the text path's own snapshot,
             [sample (Some csr)] on the binary path's. *)
          let mc ?(jobs = 1) ?(samples = s) kernel csr ~obs ~trace =
            Mcsampling.monte_carlo ~obs ~trace ~seed:cfg.seed ~jobs ~kernel
              ?csr g ~terminals:ts ~samples
          and ht ?(jobs = 1) kernel csr ~obs ~trace =
            Mcsampling.horvitz_thompson ~obs ~trace ~seed:cfg.seed ~jobs
              ~kernel ?csr g ~terminals:ts ~samples:s_ht
          in
          let row label ~samples sample =
            let run csr = sample csr ~obs:Obs.disabled ~trace:Trace.disabled in
            let text_e = run None in
            let e, t = Relstats.time (fun () -> run (Some csr)) in
            let same = e = text_e in
            Printf.printf "%-15s %14.8f %10s %11.0f %7b\n" label
              e.Mcsampling.value
              (Relstats.format_seconds t)
              (if t > 0. then float_of_int samples /. t else 0.)
              same;
            if not same then
              failwith
                (Printf.sprintf
                   "large: %s %s binary-path estimate diverged from the \
                    text path" name label)
          in
          row "MC(flat)" ~samples:s (mc Mcsampling.Flat);
          row "MC(bitsliced)" ~samples:s (mc Mcsampling.Bitsliced);
          row "HT(flat)" ~samples:s_ht (ht Mcsampling.Flat);
          row "HT(bitsliced)" ~samples:s_ht (ht Mcsampling.Bitsliced);
          let add docs =
            if cfg.json then
              List.iter (fun doc -> stats_docs := doc :: !stats_docs) docs
          in
          let mode_doc ?jobs method_name ~samples ~expect sample =
            let docs =
              stats_runs cfg ?jobs ~method_name ~graph:name ~ts ~s:samples
                ~w:0 ~trace:tr (fun ~obs ~trace ->
                  SD.result_of_estimate (sample (Some csr) ~obs ~trace))
            in
            List.iter
              (fun doc ->
                assert_kernel_counters ~method_name doc;
                assert_kernel_mode ~method_name ~expect doc)
              docs;
            add docs
          in
          if cfg.json || cfg.trace then begin
            (* run.seconds of these rows is the mmap open + CSR build
               cost, or the text parse + CSR build cost; the result
               value records the edge count so the document states what
               was loaded. *)
            add
              (stats_runs cfg ~method_name:"load-mmap" ~graph:name ~ts ~s:0
                 ~w:0 ~trace:tr
                 (fun ~obs:_ ~trace:_ ->
                   let bg, _csr = load_csr () in
                   SD.result_value
                     ~value:(float_of_int (Bingraph.n_edges bg))
                     ~exact:true));
            add
              (stats_runs cfg ~method_name:"load-text" ~graph:name ~ts ~s:0
                 ~w:0 ~trace:tr
                 (fun ~obs:_ ~trace:_ ->
                   SD.result_value
                     ~value:(float_of_int (Ugraph.n_edges (Ugraph.of_file tmp_text)))
                     ~exact:true));
            mode_doc "mc-flat" ~samples:s ~expect:"flat" (mc Mcsampling.Flat);
            mode_doc "mc-bitsliced" ~samples:s ~expect:"bitsliced"
              (mc Mcsampling.Bitsliced);
            mode_doc "ht-flat" ~samples:s_ht ~expect:"flat" (ht Mcsampling.Flat);
            mode_doc "ht-bitsliced" ~samples:s_ht ~expect:"bitsliced"
              (ht Mcsampling.Bitsliced)
          end;
          (* The serve benchmark's budgets, one chunk each at this size,
             which jobs = 2 runs as two pieces. *)
          split_rows :=
            (fun () ->
              Printf.printf "--- %s, jobs = 2 ---\n" name;
              Printf.printf "%-15s %14s %10s %11s %7s\n" "Method" "R" "time"
                "samples/s" "= j1";
              List.iter
                (fun (label, method_name, samples, expect, sample) ->
                  let run jobs =
                    sample ~jobs (Some csr) ~obs:Obs.disabled
                      ~trace:Trace.disabled
                  in
                  let e1 = run 1 in
                  let e, t = Relstats.time (fun () -> run 2) in
                  let same = { e with Mcsampling.jobs_used = 1 } = e1 in
                  Printf.printf "%-15s %14.8f %10s %11.0f %7b\n" label
                    e.Mcsampling.value
                    (Relstats.format_seconds t)
                    (if t > 0. then float_of_int samples /. t else 0.)
                    same;
                  if not same then
                    failwith
                      (Printf.sprintf
                         "large: %s %s at jobs 2 diverged from jobs 1" name
                         label);
                  if cfg.json || cfg.trace then
                    mode_doc ~jobs:2 method_name ~samples ~expect
                      (sample ~jobs:2))
                [ ("MC(flat)", "mc-flat-j2", s_ht, "flat",
                   fun ~jobs -> mc ~jobs ~samples:s_ht Mcsampling.Flat);
                  ("HT(flat)", "ht-flat-j2", s_ht, "flat",
                   fun ~jobs -> ht ~jobs Mcsampling.Flat);
                  ("MC(bitsliced)", "mc-bitsliced-j2", 3 * s_ht, "bitsliced",
                   fun ~jobs ->
                     mc ~jobs ~samples:(3 * s_ht) Mcsampling.Bitsliced) ];
              print_newline ())
            :: !split_rows;
          (* The preprocess and pro rows are the section's slowest: when
             documents are collected the printed row is the first
             instrumented run instead of one more run of its own. *)
          let measured ~method_name ~s ~w ~result run =
            if cfg.json || cfg.trace then begin
              let first = ref None in
              let docs =
                stats_runs cfg ~method_name ~graph:name ~ts ~s ~w ~trace:tr
                  (fun ~obs ~trace ->
                    let x, t = Relstats.time (fun () -> run ~obs ~trace) in
                    if !first = None then first := Some (x, t);
                    result x)
              in
              add docs;
              (Option.get !first, docs)
            end
            else
              ( Relstats.time (fun () ->
                    run ~obs:Obs.disabled ~trace:Trace.disabled),
                [] )
          in
          let (prep, prep_t), _ =
            measured ~method_name:"preprocess" ~s:0 ~w:0
              ~result:preprocess_result (fun ~obs ~trace ->
                P.run ~obs ~trace g ~terminals:ts)
          in
          (match prep with
           | P.Trivial r ->
             Printf.printf "%-15s %14.8f %10s\n" "Preprocess"
               (Xprob.to_float_approx r) (Relstats.format_seconds prep_t)
           | P.Reduced { stats; _ } ->
             Printf.printf
               "%-15s %14s %10s   ratio %.3f, %d subproblem(s), %d bridge(s)\n"
               "Preprocess" "-" (Relstats.format_seconds prep_t)
               (P.reduction_ratio stats) stats.P.n_subproblems
               stats.P.n_bridges);
          let config = large_pro_config cfg in
          let (pro, pro_t), docs =
            measured ~method_name:"pro" ~s:config.S.samples ~w:config.S.width
              ~result:(fun rep ->
                check_pro_bounds ~graph:name rep;
                SD.result_of_report rep)
              (fun ~obs ~trace ->
                R.estimate ~obs ~trace ~config ~jobs:1 g ~terminals:ts)
          in
          check_pro_bounds ~graph:name pro;
          List.iter (assert_pro_phases ~graph:name) docs;
          Printf.printf "%-15s %14.8f %10s   [%.8f, %.8f], %d descent(s)\n"
            "Pro(MC)" pro.R.value (Relstats.format_seconds pro_t) pro.R.lower
            pro.R.upper pro.R.samples_drawn;
          print_newline ()))
    graphs;
  List.iter (fun rows -> rows ()) (List.rev !split_rows);
  emit_json cfg ~section:"large" ~trace:tr (List.rev !stats_docs)

let all_sections =
  [
    ("table2", table2);
    ("fig3", fig3);
    ("fig4", fig4);
    ("fig5", fig5);
    ("table3", table3);
    ("table4", table4);
    ("table5", table5);
    ("ablation_ordering", ablation_ordering);
    ("ablation_lemmas", ablation_lemmas);
    ("ablation_heuristic", ablation_heuristic);
    ("ablation_exact", ablation_exact);
    ("parallel", parallel);
    ("kernels", kernels);
    ("bitsliced", bitsliced);
    ("adaptive", adaptive);
    ("batch", batch);
    ("large", large);
  ]
