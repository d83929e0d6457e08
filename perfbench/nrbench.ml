(* Helper tool of the serve benchmark (perfbench/run.py drives it):

     nrbench gen WORKLOAD SEED DIR
       write DIR/graph.nrb or DIR/graph.txt and DIR/queries.txt, the
       serve query stream of WORKLOAD for SEED
     nrbench ref GRAPH JOBS SAMPLES SEED TERMINALS...
       one independent bitsliced Monte-Carlo reference per terminal set
       (comma-separated ids), printed as "TERMINALS HITS SAMPLES" lines
     nrbench trace GRAPH QUERIES JOBS OUT
       replay the query stream in-process, timing each layer's public
       calls from outside; writes spans, layer counts and answers as JSON

   Graphs are fixed per workload (the Table 2 instance or the large
   section's quick instance); SEED drives the query streams only. *)

module D = Workload.Datasets
module G = Workload.Generators

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("nrbench: " ^ s); exit 2) fmt

let ids ts = String.concat "," (List.map string_of_int ts)

(* ---- gen ---- *)

let write_lines path lines =
  let oc = open_out path in
  List.iter (fun l -> output_string oc l; output_char oc '\n') lines;
  close_out oc

(* [k] distinct vertices within [radius] hops of a random centre (BFS
   ball). Road queries ask about nearby intersections, which keeps their
   reliability away from 0 so the answer check has something to test. *)
let local_terminals rng g ~k ~radius =
  let n = Ugraph.n_vertices g in
  let dist = Array.make n (-1) in
  let rec attempt () =
    Array.fill dist 0 n (-1);
    let centre = Prng.int rng n in
    let ball = ref [ centre ] in
    let frontier = ref [ centre ] in
    dist.(centre) <- 0;
    for d = 1 to radius do
      let next = ref [] in
      List.iter
        (fun v ->
          Ugraph.iter_incident g v (fun ~eid:_ ~other ->
              if dist.(other) < 0 then begin
                dist.(other) <- d;
                next := other :: !next;
                ball := other :: !ball
              end))
        !frontier;
      frontier := !next
    done;
    let ball = Array.of_list (List.rev !ball) in
    if Array.length ball < 4 * k then attempt ()
    else begin
      Prng.shuffle rng ball;
      Array.to_list (Array.sub ball 0 k)
    end
  in
  attempt ()

let fresh_seed rng = 1 + Prng.int rng 1_000_000_000

(* Merge per-set query lists into one stream in a seeded random order
   that keeps each list's own order (a set's cold query stays first):
   shuffle one slot per query, labelled with its list, then fill each
   slot with the next query of that list. *)
let interleave rng lists =
  let lists = Array.of_list lists in
  let slots = Array.concat (Array.to_list (Array.mapi (fun i l -> Array.make (List.length l) i) lists)) in
  Prng.shuffle rng slots;
  Array.to_list slots
  |> List.map (fun i ->
         let l = lists.(i) in
         lists.(i) <- List.tl l;
         List.hd l)

(* Terminal sets are fixed per workload: between sets of one k the
   work differs up to 2x, which a run's few sets cannot average out, so
   a seed-drawn set would make every seed a different benchmark. SEED
   draws the stream order and, except on sample-large, each query's
   seed, and the road mix; the answer references then stay cached
   across seeds. *)
let gen workload seed dir =
  let rng = Prng.create seed in
  let term ts = "terminals=" ^ ids ts in
  let fixed k i g = G.random_terminals ~seed:((100 * i) + k) g ~k in
  let shuffled lines =
    let a = Array.of_list lines in
    Prng.shuffle rng a;
    Array.to_list a
  in
  match workload with
  | "pro-construct" ->
    (* Distinct cold pro queries at the CLI defaults (s = w = 10,000):
       four terminal sets per k, so no query reuses another's
       preprocessing. *)
    let g = (D.dblp1 ()).D.graph in
    Bingraph.to_file (Filename.concat dir "graph.nrb") (Bingraph.of_graph g);
    List.concat_map
      (fun i ->
        List.map
          (fun k -> Printf.sprintf "%s seed=%d" (term (fixed k i g)) (fresh_seed rng))
          [ 5; 10; 20 ])
      [ 1; 2; 3; 4 ]
    |> shuffled
    |> write_lines (Filename.concat dir "queries.txt")
  | "sample-large" ->
    let g =
      G.preferential_attachment_large ~seed:1 ~n:40_000 ~edges_per_vertex:3
      |> Workload.Probability.uniform ~seed:3
    in
    Bingraph.to_file (Filename.concat dir "graph.nrb") (Bingraph.of_graph g);
    (* Small budgets: one flat sample draws all 1.2e5 edges. The
       sequential-stopping query's first round is a whole 4096-sample
       chunk whatever the target (~10 s here), so max-samples caps it at
       310; any 310-sample Wilson interval is narrower than 0.15, so it
       still stops on width, one round, with the overshoot visible. The
       fixed-budget queries are 3/5 of the stream and pro 1/5: p50 falls
       among the fixed-budget queries and p90 among the pro ones, both
       10 points from a class boundary. One session is short (~12 s), so
       a run holds several and reports medians over them. Each query's
       own seed is fixed too: a pro query's descents, and so its time,
       differ up to 2x between seeds, and with one pro query per set a
       seed-drawn one would move p90 by that much. SEED draws the order. *)
    let per_set k =
      let t = term (fixed k 1 g) in
      List.mapi
        (fun i q -> Printf.sprintf "%s %s seed=%d" t q ((1000 * k) + i + 1))
        [ "method=sampling-mc kernel=flat samples=62";
          "method=sampling-mc kernel=bitsliced samples=186";
          "method=sampling-ht kernel=flat samples=62";
          "method=sampling-mc kernel=bitsliced ci-width=0.15 max-samples=310";
          "method=pro width=1000 samples=200" ]
    in
    List.concat_map per_set [ 5; 10; 20 ]
    |> shuffled
    |> write_lines (Filename.concat dir "queries.txt")
  | "road-serve" ->
    (* Per terminal set: 1 cold pro query, then warm ones (same
       terminals, new seed) and exact repeats (memo hits) of earlier
       queries of the set, so p50 falls among the memo hits and p90
       among the warm queries. *)
    let g = (D.nyc ~scale:10. ()).D.graph in
    Ugraph.to_file (Filename.concat dir "graph.txt") g;
    let warm = 7 and repeats = 12 in
    let sets = Prng.create 7 in
    let per_set () =
      let t = term (local_terminals sets g ~k:3 ~radius:3) in
      let line () = Printf.sprintf "%s width=1000 samples=1000 seed=%d" t (fresh_seed rng) in
      let cold = line () in
      let asked = ref [ cold ] in
      cold
      :: List.map
           (function
             | `Warm ->
               let l = line () in
               asked := l :: !asked;
               l
             | `Repeat -> Prng.pick rng (Array.of_list !asked))
           (shuffled (List.init warm (fun _ -> `Warm) @ List.init repeats (fun _ -> `Repeat)))
    in
    interleave rng (List.init 6 (fun _ -> per_set ()))
    |> write_lines (Filename.concat dir "queries.txt")
  | w -> die "unknown workload %S" w

(* ---- ref ---- *)

let load_graph path =
  if Bingraph.is_binary_file path then begin
    let bg = Bingraph.load path in
    Bingraph.validate bg;
    Bingraph.to_graph bg
  end
  else Ugraph.of_file path

let reference path ~jobs ~samples ~seed sets =
  let g = load_graph path in
  let csr = Kernel.Csr.of_graph g in
  List.iter
    (fun s ->
      let ts = List.map int_of_string (String.split_on_char ',' s) in
      let e =
        Mcsampling.monte_carlo ~seed ~jobs ~kernel:Mcsampling.Bitsliced ~csr g
          ~terminals:ts ~samples
      in
      Printf.printf "%s %d %d\n%!" s e.Mcsampling.hits e.Mcsampling.samples_used)
    sets

(* ---- trace ---- *)

(* The replay does what [netrel serve] does for each line — the same
   graph load, the same [Engine] caching decisions, the same estimator
   calls and Statsdoc rendering — but calls each layer itself, so each
   call gets a span. Spans stay in memory and are written at the end;
   the answers are written too, so run.py can check them
   bit-identical to the serve replies for the same lines. Each line is
   also served by a real [Engine] outside the spans; the engine.*
   metrics come from it, and the replay is checked against it. *)

module J = Obs.Json
module P = Preprocess.Pipeline
module S = Netrel.S2bdd
module R = Netrel.Reliability
module SD = Netrel.Statsdoc

let clock = Obs.default_clock ()

type span = {
  name : string;
  start : float;
  stop : float;
  parent : int;  (* -1 for a root *)
  qid : int;     (* -1 for set-up *)
  words : float; (* minor words allocated by the calling domain *)
}

let spans : (int, span) Hashtbl.t = Hashtbl.create 1024
let n_spans = ref 0

let add_span s =
  let id = !n_spans in
  incr n_spans;
  Hashtbl.replace spans id s;
  id

(* [f] receives the new span's id, to parent its own children. *)
let span ?(parent = -1) ~qid name f =
  let id = add_span { name; start = 0.; stop = 0.; parent; qid; words = 0. } in
  let w0 = Gc.minor_words () in
  let t0 = clock () in
  let r = f id in
  let t1 = clock () in
  let w1 = Gc.minor_words () in
  Hashtbl.replace spans id { name; start = t0; stop = t1; parent; qid; words = w1 -. w0 };
  r

let timed f =
  let w0 = Gc.minor_words () in
  let t0 = clock () in
  let r = f () in
  let t1 = clock () in
  (r, t1 -. t0, Gc.minor_words () -. w0)

(* The query-line grammar of [netrel serve], restricted to the keys the
   generated streams use. *)
let parse_line ~defaults line =
  String.split_on_char ' ' (String.trim line)
  |> List.filter (fun s -> s <> "")
  |> List.fold_left
       (fun (q : Engine.query) tok ->
         match String.index_opt tok '=' with
         | None -> die "bad query token %S" tok
         | Some i -> (
           let v = String.sub tok (i + 1) (String.length tok - i - 1) in
           match String.sub tok 0 i with
           | "terminals" ->
             { q with terminals = List.map int_of_string (String.split_on_char ',' v) }
           | "method" -> (
             match Engine.method_of_name v with
             | Some m -> { q with method_ = m }
             | None -> die "unknown method %S" v)
           | "samples" -> { q with samples = int_of_string v }
           | "width" -> { q with width = int_of_string v }
           | "seed" -> { q with seed = int_of_string v }
           | "ci-width" -> { q with ci_width = Some (float_of_string v) }
           | "max-samples" -> { q with max_samples = Some (int_of_string v) }
           | "kernel" ->
             { q with
               kernel = (if v = "bitsliced" then Mcsampling.Bitsliced else Mcsampling.Flat) }
           | k -> die "unsupported query key %S" k))
       defaults

type prep = { outcome : P.outcome; orders : int array array; pobs : Obs.t }

type answer = {
  method_name : string;
  result : J.t;
  aobs : Obs.t;
  counts : (string * J.t) list;
}

let replay path queries ~jobs =
  let graph_name = Filename.basename path in
  (* Set-up, as serve: load (and validate) the graph, keep the header
     digest of a binary container. *)
  let g, header_digest =
    span ~qid:(-1) "setup" @@ fun parent ->
    if Bingraph.is_binary_file path then begin
      let bg =
        span ~parent ~qid:(-1) "bingraph.load" (fun _ ->
            let bg = Bingraph.load path in
            Bingraph.validate bg;
            bg)
      in
      let g = span ~parent ~qid:(-1) "bingraph.to_graph" (fun _ -> Bingraph.to_graph bg) in
      (g, Some (span ~parent ~qid:(-1) "bingraph.digest" (fun _ -> Bingraph.digest bg)))
    end
    else (span ~parent ~qid:(-1) "ugraph.parse" (fun _ -> Ugraph.of_file path), None)
  in
  let eng_obs = Obs.create () in
  let eng = Engine.create ~obs:(Obs.create ()) () in
  let defaults = { Engine.default with jobs } in
  let memo : (Engine.query, answer) Hashtbl.t = Hashtbl.create 64 in
  let preps : (int list, prep) Hashtbl.t = Hashtbl.create 16 in
  let csr = ref None in
  let jobs1_timed = ref false in
  let answers =
    List.mapi
      (fun qid line ->
        let q = parse_line ~defaults line in
        let cls = ref "cold" in
        let shadow = ref [] in
        let a =
          span ~qid "request" @@ fun root ->
          let a =
          span ~parent:root ~qid "engine.query" @@ fun parent ->
          let layer name f = span ~parent ~qid name f in
          (* Engine.context: a text-loaded graph is re-hashed per query. *)
          if header_digest = None then
            ignore (layer "bingraph.digest" (fun _ -> Bingraph.Digest.of_graph g));
          match Hashtbl.find_opt memo q with
          | Some a ->
            cls := "hit";
            a
          | None ->
            Ugraph.validate_terminals g q.terminals;
            let qobs = Obs.fresh_like eng_obs in
            let csr () =
              match !csr with
              | Some c -> c
              | None ->
                let c = layer "kernel.csr" (fun _ -> Kernel.Csr.of_graph g) in
                csr := Some c;
                c
            in
            let method_name, result, counts =
              Obs.gc_phase qobs "gc" @@ fun () ->
              match (q.method_, q.ci_width) with
              | Engine.Pro, None ->
                let pe =
                  match Hashtbl.find_opt preps q.terminals with
                  | Some pe ->
                    cls := "warm";
                    pe
                  | None ->
                    let pobs = Obs.fresh_like eng_obs in
                    let outcome =
                      layer "preprocess" (fun _ -> P.run ~obs:pobs g ~terminals:q.terminals)
                    in
                    let orders =
                      layer "graphalgo.ordering" (fun _ ->
                          match outcome with
                          | P.Trivial _ -> [||]
                          | P.Reduced { subproblems; _ } ->
                            subproblems
                            |> List.map (fun (sp : P.subproblem) ->
                                   Graphalgo.Ordering.order_edges
                                     (Graphalgo.Ordering.Bfs_from sp.P.terminals) sp.P.graph)
                            |> Array.of_list)
                    in
                    let pe = { outcome; orders; pobs } in
                    Hashtbl.replace preps q.terminals pe;
                    pe
                in
                Obs.merge ~into:qobs pe.pobs;
                let config =
                  { S.default_config with S.samples = q.samples; S.width = q.width;
                    S.seed = q.seed }
                in
                let rep, est_s, est_words =
                  layer "s2bdd.estimate" (fun _ ->
                      timed (fun () ->
                          R.estimate ~obs:qobs ~config ~jobs:q.jobs ~prep:pe.outcome
                            ~orders:pe.orders g ~terminals:q.terminals))
                in
                shadow := [ `Construct (config, pe, rep, est_s, est_words) ];
                let subs = rep.R.subresults in
                let sum f = List.fold_left (fun a (r : S.result) -> a + f r) 0 subs in
                let top f = List.fold_left (fun a (r : S.result) -> max a (f r)) 0 subs in
                ( "pro",
                  SD.result_of_report rep,
                  [ ("samples_drawn", J.Int rep.R.samples_drawn);
                    ("layers", J.Int (sum (fun r -> r.S.layers_built)));
                    ("max_width", J.Int (top (fun r -> r.S.max_width)));
                    ("deleted_nodes", J.Int (sum (fun r -> r.S.deleted_nodes)));
                    ("peak_state_words", J.Int (top (fun r -> r.S.peak_state_words)));
                    ( "resolved_mass",
                      J.List
                        (List.map
                           (fun (r : S.result) -> J.Float (r.S.lower +. (1. -. r.S.upper)))
                           subs) );
                    ( "reduction_ratio",
                      match (!cls, pe.outcome) with
                      | "cold", P.Reduced { stats; _ } -> J.Float (P.reduction_ratio stats)
                      | _ -> J.Null ) ] )
              | (Engine.Sampling_mc | Engine.Sampling_ht), None ->
                let csr = csr () in
                let ht = q.method_ = Engine.Sampling_ht in
                let draw ~jobs () =
                  (if ht then Mcsampling.horvitz_thompson else Mcsampling.monte_carlo)
                    ~obs:qobs ~seed:q.seed ~jobs ~kernel:q.kernel ~csr g
                    ~terminals:q.terminals ~samples:q.samples
                in
                let e = layer "mcsampling" (fun _ -> draw ~jobs:q.jobs ()) in
                (* par.speedup: the first bit-sliced MC call again at
                   jobs 1. *)
                if q.jobs > 1 && (not !jobs1_timed) && (not ht)
                   && q.kernel = Mcsampling.Bitsliced
                then begin
                  jobs1_timed := true;
                  shadow := [ `Jobs1 (draw ~jobs:1) ]
                end;
                ( (if ht then "sampling-ht" else "sampling-mc"),
                  SD.result_of_estimate e,
                  [ ( "kernel",
                      J.Str
                        ((if ht then "ht-" else "mc-") ^ Mcsampling.kernel_mode_name q.kernel) );
                    ("samples", J.Int e.Mcsampling.samples_used) ] )
              | Engine.Sampling_mc, Some w ->
                let csr = csr () in
                let r =
                  layer "adaptive" (fun _ ->
                      Adaptive.monte_carlo ~obs:qobs ~seed:q.seed ~jobs:q.jobs
                        ~kernel:q.kernel ~csr ?max_samples:q.max_samples g
                        ~terminals:q.terminals ~ci_width:w)
                in
                ( "sampling-mc",
                  SD.result_of_adaptive ~value:r.Adaptive.value ~lower:r.Adaptive.lower
                    ~upper:r.Adaptive.upper ~exact:r.Adaptive.exact
                    ~ci_width:r.Adaptive.ci_width ~target_width:r.Adaptive.target_width
                    ~samples_used:r.Adaptive.samples_used
                    ~samples_planned:r.Adaptive.samples_planned ~rounds:r.Adaptive.rounds
                    ~stop:(Adaptive.stop_name r.Adaptive.stop),
                  [ ("rounds", J.Int r.Adaptive.rounds);
                    ("samples", J.Int r.Adaptive.samples_used);
                    ("overshoot", J.Float (w /. r.Adaptive.ci_width)) ] )
              | _ -> die "trace: query shape not replayed: %s" line
            in
            let a = { method_name; result; aobs = qobs; counts } in
            Hashtbl.replace memo q a;
            a
          in
          (* Render as serve does (the CLI's query_doc). *)
          span ~parent:root ~qid "statsdoc.render" (fun _ ->
              let run =
                { SD.command = "serve"; method_ = a.method_name; graph = graph_name;
                  terminals = q.terminals; seed = q.seed; jobs = Par.effective_jobs q.jobs;
                  samples = q.samples; width = q.width }
              in
              ignore
                (J.to_string ~pretty:false
                   (SD.build ~obs:a.aobs ~run ~seconds:0. ~result:a.result)));
          a
        in
        (* Shadow calls split a layer the query could only time as a
           whole; they run between queries, outside every query span. *)
        let shadow_counts =
          List.map
            (function
              | `Construct (config, pe, rep, est_s, est_words) ->
                (* Construction alone, on the calling domain with an
                   observer like the query's. Descent time is the jobs-1
                   estimate minus this: at jobs > 1 the query's own
                   estimate ran on the pool (parallel wall time, words of
                   one domain only), so a jobs-1 estimate is timed again
                   and must give the same answer. *)
                let subs =
                  match pe.outcome with P.Trivial _ -> [] | P.Reduced r -> r.subproblems
                in
                let rng = Prng.create config.S.seed in
                let secs = ref 0. and words = ref 0. in
                List.iteri
                  (fun i (sp : P.subproblem) ->
                    let seed = Int64.to_int (Prng.bits64 rng) in
                    let cfg = { config with S.seed; S.order = `Explicit pe.orders.(i) } in
                    let _, dt, w =
                      timed (fun () ->
                          S.prepare ~obs:(Obs.fresh_like eng_obs) ~config:cfg sp.P.graph
                            ~terminals:sp.P.terminals)
                    in
                    secs := !secs +. dt;
                    words := !words +. w)
                  subs;
                let est1_s, est1_words, same =
                  if q.jobs = 1 then (est_s, est_words, true)
                  else
                    let rep1, dt, w =
                      timed (fun () ->
                          R.estimate ~obs:(Obs.fresh_like eng_obs) ~config ~jobs:1
                            ~prep:pe.outcome ~orders:pe.orders g ~terminals:q.terminals)
                    in
                    ( dt, w,
                      J.to_string (SD.result_of_report rep1)
                      = J.to_string (SD.result_of_report rep) )
                in
                [ ("construct_s", J.Float !secs); ("construct_words", J.Float !words);
                  ("estimate1_s", J.Float est1_s); ("estimate1_words", J.Float est1_words);
                  ("jobs1_same", J.Bool same) ]
              | `Jobs1 draw ->
                let _, dt, _ = timed draw in
                [ ("jobs1_s", J.Float dt) ])
            !shadow
          |> List.concat
        in
        (* The real Engine.query on the same line, also a shadow call.
           Its time and counter deltas give the engine.* metrics, and
           run.py checks the replay against it: the same answer, the same
           class and the same cache work (digests, CSR and preprocessing
           builds), at about the same cost. *)
        let c0 = Engine.counters eng in
        let real, real_s, _ = timed (fun () -> Engine.query ?digest:header_digest eng g q) in
        let c1 = Engine.counters eng in
        let d k = List.assoc k c1 - List.assoc k c0 in
        let engine =
          J.Obj
            [ ( "class",
                J.Str
                  (if d "result.hit" > 0 then "hit"
                   else if d "prep.hit" > 0 then "warm"
                   else "cold") );
              ("s", J.Float real_s);
              ("digests", J.Int (d "queries" - d "digest_from_header"));
              ("csr_builds", J.Int (d "csr.miss"));
              ("prep_builds", J.Int (d "prep.miss"));
              ("same_answer", J.Bool (J.to_string real.Engine.result = J.to_string a.result)) ]
        in
        J.Obj
          ([ ("qid", J.Int qid); ("line", J.Str line); ("class", J.Str !cls);
             ("method", J.Str a.method_name); ("result", a.result); ("engine", engine) ]
          @ (if !cls = "hit" then [] else a.counts)
          @ shadow_counts))
      queries
  in
  let span_json id s =
    J.Obj
      [ ("id", J.Int id); ("name", J.Str s.name); ("start", J.Float s.start);
        ("end", J.Float s.stop); ("parent", J.Int s.parent); ("qid", J.Int s.qid);
        ("minor_words", J.Float s.words) ]
  in
  J.Obj
    [ ("spans", J.List (List.init !n_spans (fun id -> span_json id (Hashtbl.find spans id))));
      ("queries", J.List answers) ]

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | l -> go (if String.trim l = "" then acc else l :: acc)
    | exception End_of_file -> close_in ic; List.rev acc
  in
  go []

let () =
  match Array.to_list Sys.argv with
  | [ _; "gen"; workload; seed; dir ] -> gen workload (int_of_string seed) dir
  | _ :: "ref" :: graph :: jobs :: samples :: seed :: sets ->
    reference graph ~jobs:(int_of_string jobs) ~samples:(int_of_string samples)
      ~seed:(int_of_string seed) sets
  | [ _; "trace"; graph; queries; jobs; out ] ->
    let doc = replay graph (read_lines queries) ~jobs:(int_of_string jobs) in
    let oc = open_out out in
    output_string oc (J.to_string ~pretty:false doc);
    close_out oc
  | _ -> die "usage: nrbench gen|ref|trace ... (see the header of nrbench.ml)"
