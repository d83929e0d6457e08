module J = Obs.Json

type direction = Lower_better | Higher_better

type status = Ok | Regression | Improvement

type row = {
  group : string;
  metric : string;
  old_median : float;
  new_median : float;
  tolerance : float;
  delta : float;
  status : status;
}

type report = {
  rows : row list;
  regressions : int;
  improvements : int;
  missing_groups : string list;
  new_groups : string list;
}

let default_rel_tol = 0.25
let default_mad_mult = 6.0

(* The metric table: dotted path into a Statsdoc document, which
   direction is good, and an absolute noise floor below which a delta
   is never a regression no matter how small the baseline. The floors
   are the documented part of the contract (README "Memory & latency
   profiles"): 20 ms of wall clock, 1 ms of per-chunk latency, and a
   megaword of allocation are all within same-machine run-to-run noise
   for the quick sections. *)
let metrics =
  [
    ("run.seconds", Lower_better, 0.02);
    ("sampling.kernel.samples_per_sec", Higher_better, 0.0);
    ("sampling.hist.chunk_ns.p50", Lower_better, 1e6);
    ("sampling.hist.chunk_ns.p99", Lower_better, 1e6);
    ("gc.minor_words", Lower_better, 1e6);
    ("sampling.gc.minor_words", Lower_better, 1e6);
    ("gc.top_heap_words", Lower_better, 1e6);
  ]

let direction_name = function
  | Lower_better -> "lower"
  | Higher_better -> "higher"

let status_name = function
  | Ok -> "ok"
  | Regression -> "REGRESSION"
  | Improvement -> "improvement"

(* ---- document access ---- *)

let path_value doc path =
  let rec walk v = function
    | [] -> (
      match v with
      | J.Int i -> Some (float_of_int i)
      | J.Float f when Float.is_finite f -> Some f
      | _ -> None)
    | k :: rest -> (
      match J.member k v with None -> None | Some v' -> walk v' rest)
  in
  walk doc (String.split_on_char '.' path)

let run_key doc =
  match J.member "run" doc with
  | None -> None
  | Some run -> (
    match (J.member "method" run, J.member "graph" run) with
    | Some (J.Str m), Some (J.Str g) -> Some (m ^ "/" ^ g)
    | _ -> None)

(* Group a BENCH document's runs by "method/graph", preserving first-seen
   order (repeats of the same pair collect into one group). *)
let groups_of doc =
  match J.member "runs" doc with
  | Some (J.List runs) ->
    let order = ref [] in
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun r ->
        match run_key r with
        | None -> ()
        | Some key ->
          if not (Hashtbl.mem tbl key) then begin
            order := key :: !order;
            Hashtbl.replace tbl key []
          end;
          Hashtbl.replace tbl key (r :: Hashtbl.find tbl key))
      runs;
    Result.Ok
      (List.rev_map (fun key -> (key, List.rev (Hashtbl.find tbl key))) !order)
  | _ -> Result.Error "document has no top-level \"runs\" list"

let validate_doc doc =
  match groups_of doc with
  | Result.Error _ as e -> e
  | Result.Ok [] -> Result.Error "document has no runs with run.method/run.graph"
  | Result.Ok groups -> Result.Ok groups

(* ---- statistics ---- *)

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mad xs =
  let m = median xs in
  median (List.map (fun x -> Float.abs (x -. m)) xs)

(* ---- comparison ---- *)

let compare_group ~rel_tol ~mad_mult ~group old_runs new_runs =
  List.filter_map
    (fun (path, dir, abs_floor) ->
      let values runs = List.filter_map (fun r -> path_value r path) runs in
      let old_vals = values old_runs and new_vals = values new_runs in
      if old_vals = [] || new_vals = [] then None
      else begin
        let old_median = median old_vals and new_median = median new_vals in
        let tolerance =
          Float.max
            (Float.max (rel_tol *. Float.abs old_median) (mad_mult *. mad old_vals))
            abs_floor
        in
        let delta = new_median -. old_median in
        (* Positive [worse] means the new median moved in the bad
           direction for this metric. *)
        let worse =
          match dir with Lower_better -> delta | Higher_better -> -.delta
        in
        let status =
          if worse > tolerance then Regression
          else if -.worse > tolerance then Improvement
          else Ok
        in
        Some { group; metric = path; old_median; new_median; tolerance; delta;
               status }
      end)
    metrics

let compare_docs ?(rel_tol = default_rel_tol) ?(mad_mult = default_mad_mult)
    ~old_doc ~new_doc () =
  match (validate_doc old_doc, validate_doc new_doc) with
  | Result.Error e, _ -> Result.Error ("old document: " ^ e)
  | _, Result.Error e -> Result.Error ("new document: " ^ e)
  | Result.Ok old_groups, Result.Ok new_groups ->
    let rows =
      List.concat_map
        (fun (group, old_runs) ->
          match List.assoc_opt group new_groups with
          | None -> []
          | Some new_runs ->
            compare_group ~rel_tol ~mad_mult ~group old_runs new_runs)
        old_groups
    in
    let missing_groups =
      List.filter_map
        (fun (g, _) ->
          if List.mem_assoc g new_groups then None else Some g)
        old_groups
    and new_groups_only =
      List.filter_map
        (fun (g, _) ->
          if List.mem_assoc g old_groups then None else Some g)
        new_groups
    in
    let count st = List.length (List.filter (fun r -> r.status = st) rows) in
    Result.Ok
      {
        rows;
        regressions = count Regression;
        improvements = count Improvement;
        missing_groups;
        new_groups = new_groups_only;
      }

let regressed rep = rep.regressions > 0

(* ---- rendering ---- *)

let fmt_value v =
  (* %.6g keeps the table deterministic and compact; full precision
     lives in the --json rendering. *)
  Printf.sprintf "%.6g" v

let render_human rep =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "%-28s %-36s %14s %14s %12s %12s\n" "group" "metric" "old"
       "new" "tolerance" "status");
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "%-28s %-36s %14s %14s %12s %12s\n" r.group r.metric
           (fmt_value r.old_median) (fmt_value r.new_median)
           (fmt_value r.tolerance) (status_name r.status)))
    rep.rows;
  List.iter
    (fun g ->
      Buffer.add_string b
        (Printf.sprintf "[group %s: in baseline only, skipped]\n" g))
    rep.missing_groups;
  List.iter
    (fun g ->
      Buffer.add_string b (Printf.sprintf "[group %s: new, no baseline]\n" g))
    rep.new_groups;
  Buffer.add_string b
    (Printf.sprintf "benchdiff: %d compared, %d regression(s), %d improvement(s)\n"
       (List.length rep.rows) rep.regressions rep.improvements);
  Buffer.contents b

let render_json rep =
  let dir_of metric =
    match
      List.find_opt (fun (p, _, _) -> p = metric) metrics
    with
    | Some (_, d, _) -> direction_name d
    | None -> "lower"
  in
  J.Obj
    [
      ( "rows",
        J.List
          (List.map
             (fun r ->
               J.Obj
                 [
                   ("group", J.Str r.group);
                   ("metric", J.Str r.metric);
                   ("direction", J.Str (dir_of r.metric));
                   ("old_median", J.Float r.old_median);
                   ("new_median", J.Float r.new_median);
                   ("delta", J.Float r.delta);
                   ("tolerance", J.Float r.tolerance);
                   ("status", J.Str (status_name r.status));
                 ])
             rep.rows) );
      ("missing_groups", J.List (List.map (fun g -> J.Str g) rep.missing_groups));
      ("new_groups", J.List (List.map (fun g -> J.Str g) rep.new_groups));
      ("regressions", J.Int rep.regressions);
      ("improvements", J.Int rep.improvements);
    ]
