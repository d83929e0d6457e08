(* Streaming trace events (lib/trace): ring-buffer overflow semantics,
   the lane-merge determinism contract across jobs values, Chrome /
   JSONL export round-trips through Obs.Json, and the live progress
   reporter's byte-stable rendering under a pinned clock. *)

open Testutil
module J = Obs.Json
module R = Netrel.Reliability

let pinned () = Trace.create ~clock:(fun () -> 0.) ()

(* ---- Disabled sink: every call is a no-op ---- *)

let t_disabled () =
  let t = Trace.disabled in
  Alcotest.(check bool) "disabled" false (Trace.enabled t);
  Trace.instant t "x";
  Trace.counter t "c" 1.;
  Trace.complete t ~ts:0. "sp";
  let ran = ref false in
  let v = Trace.span t "sp" (fun () -> ran := true; 7) in
  Alcotest.(check int) "span passes result through" 7 v;
  Alcotest.(check bool) "span ran the thunk" true !ran;
  Alcotest.(check (list reject)) "no events" [] (Trace.events t);
  Alcotest.(check bool) "task disabled is disabled" false
    (Trace.enabled (Trace.task t ~lane:3));
  Trace.merge ~into:t (pinned ());
  Alcotest.(check int) "dropped stays 0" 0 (Trace.dropped t)

(* ---- Ring overflow: drop-oldest, deterministic, counted ---- *)

let t_ring_overflow () =
  let seen = ref [] in
  let t =
    Trace.create ~clock:(fun () -> 0.) ~capacity:4
      ~on_event:(fun ev -> seen := ev.Trace.name :: !seen)
      ()
  in
  for i = 0 to 9 do
    Trace.instant t (Printf.sprintf "i%d" i)
  done;
  let names = List.map (fun (ev : Trace.event) -> ev.name) (Trace.events t) in
  Alcotest.(check (list string)) "survivors are the newest, in order"
    [ "i6"; "i7"; "i8"; "i9" ] names;
  Alcotest.(check int) "dropped counted" 6 (Trace.dropped t);
  Alcotest.(check int) "listener saw every event, drops included" 10
    (List.length !seen)

let t_task_merge () =
  let t = pinned () in
  Trace.instant t "main.before";
  let a = Trace.task t ~lane:1 in
  let b = Trace.task t ~lane:2 in
  Trace.instant b "b.event";
  Trace.instant a "a.event";
  (* Merge in task order, not completion order: the merged stream's
     order is schedule-independent. *)
  Trace.merge ~into:t a;
  Trace.merge ~into:t b;
  Trace.instant t "main.after";
  let lanes =
    List.map (fun (ev : Trace.event) -> (ev.name, ev.lane)) (Trace.events t)
  in
  Alcotest.(check (list (pair string int))) "task order, lanes preserved"
    [ ("main.before", 0); ("a.event", 1); ("b.event", 2); ("main.after", 0) ]
    lanes;
  Alcotest.check_raises "negative lane rejected"
    (Invalid_argument "Trace.task: lane < 0") (fun () ->
      ignore (Trace.task t ~lane:(-1)))

let t_merge_carries_drops () =
  let t = Trace.create ~clock:(fun () -> 0.) ~capacity:3 () in
  let child = Trace.task t ~lane:1 in
  for i = 0 to 4 do
    Trace.instant child (Printf.sprintf "c%d" i)
  done;
  Alcotest.(check int) "child dropped" 2 (Trace.dropped child);
  Trace.merge ~into:t child;
  (* 3 surviving child events into an empty capacity-3 parent: all fit;
     the child's drop count transfers. *)
  Alcotest.(check int) "merged events" 3 (List.length (Trace.events t));
  Alcotest.(check int) "drop count transferred" 2 (Trace.dropped t)

(* ---- Lane-merge determinism: jobs only moves the lane field ---- *)

(* Erases what the contract leaves free: the lane, and the value of a
   [*.gc.*] counter, which is a live GC measurement like a timestamp
   (the event itself, its name and its position must still match). *)
let norm evs =
  List.map
    (fun (ev : Trace.event) ->
      let kind =
        match ev.kind with
        | Trace.Counter _ when List.mem "gc" (String.split_on_char '.' ev.name)
          ->
          Trace.Counter 0.
        | k -> k
      in
      { ev with Trace.lane = 0; kind })
    evs

let check_jobs_invariant name run =
  match List.map run [ 1; 2; 8 ] with
  | [] -> assert false
  | first :: rest ->
    List.iteri
      (fun i other ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: jobs %d events = jobs 1 events (lanes erased)"
             name [| 2; 8 |].(i))
          true
          (norm first = norm other))
      rest

let t_jobs_lanes_mc () =
  let g = fig1 () in
  check_jobs_invariant "mc" (fun jobs ->
      let t = pinned () in
      let _ =
        Mcsampling.monte_carlo ~trace:t ~seed:7 ~jobs g ~terminals:[ 0; 4 ]
          ~samples:2000
      in
      let evs = Trace.events t in
      Alcotest.(check bool)
        (Printf.sprintf "mc jobs %d traced something" jobs)
        true (evs <> []);
      evs)

let t_jobs_lanes_ht () =
  let g = two_triangles 0.6 in
  check_jobs_invariant "ht" (fun jobs ->
      let t = pinned () in
      let _ =
        Mcsampling.horvitz_thompson ~trace:t ~seed:7 ~jobs g
          ~terminals:[ 0; 5 ] ~samples:2000
      in
      Trace.events t)

let t_jobs_lanes_pro () =
  let g = fig1 () in
  let config =
    { Netrel.S2bdd.default_config with samples = 500; seed = 3 }
  in
  check_jobs_invariant "pro" (fun jobs ->
      let t = pinned () in
      let _ = R.estimate ~trace:t ~config ~jobs g ~terminals:[ 0; 4 ] in
      let evs = Trace.events t in
      Alcotest.(check bool)
        (Printf.sprintf "pro jobs %d has layer spans" jobs)
        true
        (List.exists (fun (ev : Trace.event) -> ev.name = "layer") evs);
      evs)

(* At a fixed jobs value the stream is identical run to run, lanes
   included — the byte-stability half of the contract (the export is a
   pure function of the stream and the pinned clock). *)
let t_fixed_jobs_stable () =
  let g = two_triangles 0.6 in
  let run () =
    let t = pinned () in
    let _ =
      Mcsampling.horvitz_thompson ~trace:t ~seed:11 ~jobs:2 g
        ~terminals:[ 0; 5 ] ~samples:1500
    in
    Trace.events t
  in
  Alcotest.(check bool) "identical streams, lanes included" true
    (run () = run ())

(* ---- Chrome export round-trips through Obs.Json ---- *)

let t_chrome_roundtrip () =
  let t = pinned () in
  Trace.instant t "mark"
    ~args:
      [ ("i", Trace.Int 3); ("f", Trace.Float 0.5); ("s", Trace.Str "x");
        ("b", Trace.Bool true) ];
  Trace.counter t "width" 7.;
  let v = Trace.span t "work" (fun () -> 41 + 1) in
  Alcotest.(check int) "span result" 42 v;
  Trace.instant_shared t "ctl" ~args:[ ("tasks", Trace.Int 2) ];
  let doc = Trace.to_chrome t in
  let reparsed = J.of_string_exn (J.to_string ~pretty:true doc) in
  Alcotest.(check bool) "pretty round-trip is lossless" true (doc = reparsed);
  (match Trace.validate_chrome reparsed with
  | Ok () -> ()
  | Error e -> Alcotest.failf "validate_chrome: %s" e);
  (match J.member "otherData" reparsed with
  | Some od ->
    Alcotest.(check bool) "schema stamped" true
      (J.member "schema" od = Some (J.Int Trace.schema_version))
  | None -> Alcotest.fail "missing otherData");
  match J.member "traceEvents" reparsed with
  | Some (J.List evs) ->
    let tids =
      List.sort_uniq compare
        (List.filter_map (fun e -> J.member "tid" e) evs)
    in
    (* lane 0 plus the control lane, each with a thread_name record. *)
    Alcotest.(check bool) "tids are lane 0 + control" true
      (tids = [ J.Int 0; J.Int Trace.control_lane ]);
    let phs = List.filter_map (fun e -> J.member "ph" e) evs in
    List.iter
      (fun ph ->
        Alcotest.(check bool) "ph known" true
          (List.mem ph [ J.Str "M"; J.Str "X"; J.Str "i"; J.Str "C" ]))
      phs
  | _ -> Alcotest.fail "missing traceEvents"

let t_validate_rejects () =
  let bad what j =
    match Trace.validate_chrome j with
    | Ok () -> Alcotest.failf "%s: accepted" what
    | Error _ -> ()
  in
  bad "no traceEvents" (J.Obj []);
  bad "not a list" (J.Obj [ ("traceEvents", J.Int 0) ]);
  bad "event missing ph"
    (J.Obj
       [ ("traceEvents", J.List [ J.Obj [ ("name", J.Str "x") ] ]) ])

let t_jsonl () =
  let t = pinned () in
  Trace.instant t "a";
  Trace.counter t "c" 2.;
  let path = Filename.temp_file "netrel_trace" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out path in
  Trace.write_jsonl oc t;
  close_out oc;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let lines = List.rev !lines in
  Alcotest.(check int) "header + one line per event" 3 (List.length lines);
  let docs = List.map J.of_string_exn lines in
  (match docs with
  | header :: evs ->
    Alcotest.(check bool) "header tagged" true
      (J.member "netrel" header = Some (J.Str "trace"));
    Alcotest.(check bool) "header schema" true
      (J.member "schema" header = Some (J.Int Trace.schema_version));
    List.iter
      (fun e ->
        Alcotest.(check bool) "event has ph" true (J.member "ph" e <> None))
      evs
  | [] -> assert false)

(* ---- Progress reporter: pinned clock → phase-transition renders only ---- *)

let t_progress () =
  let frames = ref [] in
  let r =
    Trace.Progress.create
      ~emit:(fun s -> frames := s :: !frames)
      ~tty:false ~clock:(fun () -> 0.) ()
  in
  let ev ?(args = []) ?(kind = Trace.Instant) name =
    Trace.Progress.on_event r { Trace.name; kind; ts = 0.; lane = 0; args }
  in
  ev "prune";
  ev "decompose";  (* same phase: throttled out under the pinned clock *)
  ev "layer" ~kind:(Trace.Span 0.)
    ~args:[ ("layer", Trace.Int 1); ("width", Trace.Int 4) ];
  ev "mc.chunk" ~kind:(Trace.Span 0.)
    ~args:[ ("samples", Trace.Int 100); ("hits", Trace.Int 60) ];
  ev "estimate"
    ~args:
      [ ("value", Trace.Float 0.5); ("lower", Trace.Float 0.4);
        ("upper", Trace.Float 0.6); ("samples", Trace.Int 100) ];
  Trace.Progress.finish r;
  Trace.Progress.finish r (* idempotent *);
  ev "late";  (* consumed silently after finish *)
  Alcotest.(check (list string)) "frames"
    [
      "progress: preprocess\n";
      "progress: construction layer 1 width 4\n";
      "progress: sampling samples 100\n";
      "progress: done est 0.5 +/-0.1 samples 100\n";
    ]
    (List.rev !frames)

let t_progress_exact () =
  let frames = ref [] in
  let r =
    Trace.Progress.create
      ~emit:(fun s -> frames := s :: !frames)
      ~tty:false ~clock:(fun () -> 0.) ()
  in
  Trace.Progress.on_event r
    {
      Trace.name = "estimate";
      kind = Trace.Instant;
      ts = 0.;
      lane = 0;
      args =
        [ ("value", Trace.Float 0.25); ("lower", Trace.Float 0.25);
          ("upper", Trace.Float 0.25); ("exact", Trace.Bool true);
          ("samples", Trace.Int 0) ];
    };
  Trace.Progress.finish r;
  Alcotest.(check (list string)) "exact result renders R=, no CI"
    [ "progress: done R=0.25\n" ]
    (List.rev !frames)

let suite =
  ( "trace",
    [
      Alcotest.test_case "disabled no-op" `Quick t_disabled;
      Alcotest.test_case "ring overflow" `Quick t_ring_overflow;
      Alcotest.test_case "task/merge order + lanes" `Quick t_task_merge;
      Alcotest.test_case "merge carries drops" `Quick t_merge_carries_drops;
      Alcotest.test_case "jobs-invariant lanes (mc)" `Quick t_jobs_lanes_mc;
      Alcotest.test_case "jobs-invariant lanes (ht)" `Quick t_jobs_lanes_ht;
      Alcotest.test_case "jobs-invariant lanes (pro)" `Quick t_jobs_lanes_pro;
      Alcotest.test_case "fixed-jobs stream stable" `Quick t_fixed_jobs_stable;
      Alcotest.test_case "chrome round-trip" `Quick t_chrome_roundtrip;
      Alcotest.test_case "validate_chrome rejects" `Quick t_validate_rejects;
      Alcotest.test_case "jsonl export" `Quick t_jsonl;
      Alcotest.test_case "progress reporter" `Quick t_progress;
      Alcotest.test_case "progress exact" `Quick t_progress_exact;
    ] )
