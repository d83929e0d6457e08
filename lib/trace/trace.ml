(* Streaming trace events: bounded per-task rings merged in task order,
   exported as Chrome trace-event JSON or flat JSONL. See trace.mli for
   the lane/determinism contract. *)

module J = Obs.Json

type arg =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

type kind =
  | Span of float
  | Instant
  | Counter of float

type event = {
  name : string;
  kind : kind;
  ts : float;
  lane : int;
  args : (string * arg) list;
}

let schema_version = 1
let control_lane = Par.max_jobs
let default_capacity = 65536

(* Ring buffer with overwrite-oldest semantics. Storage is allocated
   lazily and doubled up to [cap]; growth only ever happens before the
   first overwrite, so [start] is still 0 when we re-blit. *)
type ring = {
  mutable arr : event array;
  mutable start : int;
  mutable len : int;
  cap : int;
  mutable dropped : int;
}

let dummy_event = { name = ""; kind = Instant; ts = 0.; lane = 0; args = [] }
let ring_create cap = { arr = [||]; start = 0; len = 0; cap; dropped = 0 }

let ring_push r ev =
  let alloc = Array.length r.arr in
  if r.len = alloc && alloc < r.cap then begin
    let n = if alloc = 0 then min r.cap 64 else min r.cap (alloc * 2) in
    let a = Array.make n dummy_event in
    Array.blit r.arr 0 a 0 r.len;
    r.arr <- a
  end;
  let alloc = Array.length r.arr in
  if r.len < alloc then begin
    r.arr.((r.start + r.len) mod alloc) <- ev;
    r.len <- r.len + 1
  end
  else begin
    r.arr.(r.start) <- ev;
    r.start <- (r.start + 1) mod alloc;
    r.dropped <- r.dropped + 1
  end

let ring_iter r f =
  let alloc = Array.length r.arr in
  for i = 0 to r.len - 1 do
    f r.arr.((r.start + i) mod alloc)
  done

let ring_to_list r =
  let acc = ref [] in
  ring_iter r (fun ev -> acc := ev :: !acc);
  List.rev !acc

(* State common to a sink and every task buffer derived from it: the
   clock and epoch (so all lanes share a time base), the listener, and
   the mutex-protected control-lane buffer. *)
type shared = {
  clock : unit -> float;
  epoch : float;
  capacity : int;
  listener : (event -> unit) option;
  smutex : Mutex.t;
  sring : ring;
}

type t = { on : bool; lane : int; sh : shared; ring : ring }

let disabled =
  {
    on = false;
    lane = 0;
    sh =
      {
        clock = (fun () -> 0.);
        epoch = 0.;
        capacity = 0;
        listener = None;
        smutex = Mutex.create ();
        sring = ring_create 0;
      };
    ring = ring_create 0;
  }

let enabled t = t.on

let create ?clock ?(capacity = default_capacity) ?on_event () =
  let clock =
    match clock with Some c -> c | None -> Obs.default_clock ()
  in
  let capacity = max 1 capacity in
  let sh =
    {
      clock;
      epoch = clock ();
      capacity;
      listener = on_event;
      smutex = Mutex.create ();
      sring = ring_create capacity;
    }
  in
  { on = true; lane = 0; sh; ring = ring_create capacity }

let now t = if t.on then t.sh.clock () -. t.sh.epoch else 0.

let task t ~lane =
  if lane < 0 then invalid_arg "Trace.task: lane < 0";
  if not t.on then disabled
  else { t with lane; ring = ring_create t.sh.capacity }

let merge ~into src =
  if into.on && src.on then begin
    ring_iter src.ring (fun ev -> ring_push into.ring ev);
    into.ring.dropped <- into.ring.dropped + src.ring.dropped
  end

let emit t ev =
  (match t.sh.listener with None -> () | Some f -> f ev);
  ring_push t.ring ev

let instant t ?(args = []) name =
  if t.on then
    emit t { name; kind = Instant; ts = now t; lane = t.lane; args }

let counter t name v =
  if t.on then
    emit t { name; kind = Counter v; ts = now t; lane = t.lane; args = [] }

let complete t ?(args = []) ~ts name =
  if t.on then
    let dur = now t -. ts in
    emit t { name; kind = Span dur; ts; lane = t.lane; args }

let span t ?args name f =
  if not t.on then f ()
  else begin
    let ts = now t in
    Fun.protect ~finally:(fun () -> complete t ?args ~ts name) f
  end

let instant_shared t ?(args = []) name =
  if t.on then begin
    let ev = { name; kind = Instant; ts = now t; lane = control_lane; args } in
    (match t.sh.listener with None -> () | Some f -> f ev);
    Mutex.lock t.sh.smutex;
    ring_push t.sh.sring ev;
    Mutex.unlock t.sh.smutex
  end

let install_par_hook t =
  if t.on then
    Par.set_batch_hook
      (Some (fun n -> instant_shared t ~args:[ ("tasks", Int n) ] "par.batch"))
  else Par.set_batch_hook None

let events t = ring_to_list t.ring

let shared_events t =
  Mutex.lock t.sh.smutex;
  let evs = ring_to_list t.sh.sring in
  Mutex.unlock t.sh.smutex;
  evs

let dropped t =
  Mutex.lock t.sh.smutex;
  let shared_dropped = t.sh.sring.dropped in
  Mutex.unlock t.sh.smutex;
  t.ring.dropped + shared_dropped

(* ---- Export ---- *)

let arg_json = function
  | Int i -> J.Int i
  | Float f -> J.Float f
  | Str s -> J.Str s
  | Bool b -> J.Bool b

let args_json args = J.Obj (List.map (fun (k, v) -> (k, arg_json v)) args)
let usec s = s *. 1e6

(* One Chrome trace-event record. Timestamps are microseconds relative
   to the trace epoch; [pid] is the run, [tid] the lane. *)
let event_json ev =
  let base =
    [
      ("name", J.Str ev.name);
      ("ph", J.Str (match ev.kind with Span _ -> "X" | Instant -> "i" | Counter _ -> "C"));
      ("pid", J.Int 0);
      ("tid", J.Int ev.lane);
      ("ts", J.Float (usec ev.ts));
    ]
  in
  let tail =
    match ev.kind with
    | Span d ->
      ("dur", J.Float (usec d))
      :: (if ev.args = [] then [] else [ ("args", args_json ev.args) ])
    | Instant ->
      ("s", J.Str "t")
      :: (if ev.args = [] then [] else [ ("args", args_json ev.args) ])
    | Counter v -> [ ("args", J.Obj [ ("value", J.Float v) ]) ]
  in
  J.Obj (base @ tail)

let lane_name lane =
  if lane = control_lane then "control" else Printf.sprintf "lane %d" lane

let metadata_json all_events =
  let lanes =
    List.sort_uniq Int.compare
      (List.map (fun (ev : event) -> ev.lane) all_events)
  in
  let meta name tid args =
    J.Obj
      [
        ("name", J.Str name);
        ("ph", J.Str "M");
        ("pid", J.Int 0);
        ("tid", J.Int tid);
        ("args", J.Obj args);
      ]
  in
  meta "process_name" 0 [ ("name", J.Str "netrel") ]
  :: List.map
       (fun lane -> meta "thread_name" lane [ ("name", J.Str (lane_name lane)) ])
       lanes

let to_chrome t =
  let evs = events t @ shared_events t in
  J.Obj
    [
      ( "traceEvents",
        J.List (metadata_json evs @ List.map event_json evs) );
      ("displayTimeUnit", J.Str "ms");
      ( "otherData",
        J.Obj
          [
            ("producer", J.Str "netrel");
            ("schema", J.Int schema_version);
            ("dropped", J.Int (dropped t));
          ] );
    ]

let write_chrome oc t =
  output_string oc (J.to_string ~pretty:true (to_chrome t));
  output_char oc '\n'

let write_jsonl oc t =
  let header =
    J.Obj
      [
        ("netrel", J.Str "trace");
        ("schema", J.Int schema_version);
        ("dropped", J.Int (dropped t));
      ]
  in
  output_string oc (J.to_string header);
  output_char oc '\n';
  List.iter
    (fun ev ->
      output_string oc (J.to_string (event_json ev));
      output_char oc '\n')
    (events t @ shared_events t)

let validate_chrome j =
  match J.member "traceEvents" j with
  | None -> Error "missing traceEvents"
  | Some (J.List evs) ->
    let check i e =
      match e with
      | J.Obj _ ->
        let has k = J.member k e <> None in
        let ph =
          match J.member "ph" e with Some (J.Str s) -> Some s | _ -> None
        in
        if not (has "name") then
          Error (Printf.sprintf "event %d: missing name" i)
        else if ph = None then
          Error (Printf.sprintf "event %d: missing ph" i)
        else if not (has "pid" && has "tid") then
          Error (Printf.sprintf "event %d: missing pid/tid" i)
        else if ph <> Some "M" && not (has "ts") then
          Error (Printf.sprintf "event %d: missing ts" i)
        else Ok ()
      | _ -> Error (Printf.sprintf "event %d: not an object" i)
    in
    let rec go i = function
      | [] -> Ok ()
      | e :: rest -> ( match check i e with Ok () -> go (i + 1) rest | e -> e)
    in
    go 0 evs
  | Some _ -> Error "traceEvents: not a list"

(* ---- Live convergence reporter ---- *)

module Progress = struct
  type reporter = {
    m : Mutex.t;
    emit : string -> unit;
    tty : bool;
    interval : float;
    clock : unit -> float;
    start : float;
    mutable phase : string;
    mutable last_render : float;
    mutable est : float option;
    mutable half : float option;
    mutable exact : bool;
    mutable samples : int;
    mutable ht_unique : int;
    mutable ht_total : int;
    mutable layer : int;
    mutable width : float;
    mutable rendered : bool;
    mutable finished : bool;
  }

  let default_emit s =
    output_string stderr s;
    flush stderr

  let create ?emit ?tty ?(interval = 0.2) ?clock () =
    let emit = match emit with Some e -> e | None -> default_emit in
    let tty =
      match tty with Some b -> b | None -> Unix.isatty Unix.stderr
    in
    let clock =
      match clock with Some c -> c | None -> Obs.default_clock ()
    in
    {
      m = Mutex.create ();
      emit;
      tty;
      interval;
      clock;
      start = clock ();
      phase = "";
      last_render = neg_infinity;
      est = None;
      half = None;
      exact = false;
      samples = 0;
      ht_unique = 0;
      ht_total = 0;
      layer = 0;
      width = 0.;
      rendered = false;
      finished = false;
    }

  (* Event names fold into three coarse phases; the mapping is by
     substring so instrumentation sites can use specific names
     ("s2bdd.layer", "mc.chunk", ...) without registering them here. *)
  let phase_of name =
    let has sub =
      let n = String.length name and m = String.length sub in
      let rec at i = i + m <= n && (String.sub name i m = sub || at (i + 1)) in
      at 0
    in
    if has "prune" || has "decompose" || has "transform" || has "preprocess"
    then Some "preprocess"
    else if has "layer" || has "construction" || has "width" then
      Some "construction"
    else if has "chunk" || has "merge" || has "descent" then Some "sampling"
    else None

  let fmt v = Printf.sprintf "%.6g" v

  let line r =
    let b = Buffer.create 96 in
    Buffer.add_string b "progress: ";
    Buffer.add_string b (if r.finished then "done" else r.phase);
    if r.layer > 0 && r.phase = "construction" && not r.finished then begin
      Buffer.add_string b (Printf.sprintf " layer %d" r.layer);
      if r.width > 0. then Buffer.add_string b (Printf.sprintf " width %g" r.width)
    end;
    (match r.est with
    | Some v ->
      Buffer.add_string b
        (if r.exact then Printf.sprintf " R=%s" (fmt v)
         else Printf.sprintf " est %s" (fmt v));
      (match r.half with
      | Some h when not r.exact ->
        Buffer.add_string b (Printf.sprintf " +/-%s" (fmt h))
      | _ -> ())
    | None -> ());
    if r.samples > 0 then begin
      Buffer.add_string b (Printf.sprintf " samples %d" r.samples);
      let elapsed = r.clock () -. r.start in
      if elapsed > 0. then
        Buffer.add_string b
          (Printf.sprintf " (%.0f/s)" (float_of_int r.samples /. elapsed))
    end;
    if r.ht_total > 0 then
      Buffer.add_string b
        (Printf.sprintf " dedup %d/%d" r.ht_unique r.ht_total);
    Buffer.contents b

  let render r ~final =
    let s = line r in
    let frame =
      if final then if r.tty && r.rendered then "\r\027[K" ^ s ^ "\n" else s ^ "\n"
      else if r.tty then "\r" ^ s ^ "\027[K"
      else s ^ "\n"
    in
    r.rendered <- true;
    r.last_render <- r.clock ();
    r.emit frame

  let int_arg args k =
    match List.assoc_opt k args with
    | Some (Int i) -> Some i
    | Some (Float f) -> Some (int_of_float f)
    | _ -> None

  let float_arg args k =
    match List.assoc_opt k args with
    | Some (Float f) -> Some f
    | Some (Int i) -> Some (float_of_int i)
    | _ -> None

  let bool_arg args k =
    match List.assoc_opt k args with Some (Bool b) -> Some b | _ -> None

  let absorb r (ev : event) =
    (match ev.kind with
    | Counter v ->
      if ev.name = "width" || Filename.check_suffix ev.name ".width" then
        r.width <- v
    | _ -> ());
    (match int_arg ev.args "layer" with
    | Some l -> r.layer <- max r.layer l
    | None -> ());
    (match float_arg ev.args "width" with
    | Some w -> r.width <- w
    | None -> ());
    (match float_arg ev.args "value" with
    | Some v -> r.est <- Some v
    | None -> ());
    (match (float_arg ev.args "lower", float_arg ev.args "upper") with
    | Some lo, Some hi -> r.half <- Some ((hi -. lo) /. 2.)
    | _ -> ());
    (match bool_arg ev.args "exact" with
    | Some e -> r.exact <- e
    | None -> ());
    (match int_arg ev.args "samples" with
    | Some n ->
      if ev.kind = Instant then r.samples <- max r.samples n
      else r.samples <- r.samples + n
    | None -> ());
    match (int_arg ev.args "unique", int_arg ev.args "drawn") with
    | Some u, Some d ->
      r.ht_unique <- r.ht_unique + u;
      r.ht_total <- r.ht_total + d
    | _ -> ()

  let on_event r ev =
    Mutex.lock r.m;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock r.m)
      (fun () ->
        if not r.finished then begin
          absorb r ev;
          match phase_of ev.name with
          | Some p when p <> r.phase ->
            r.phase <- p;
            render r ~final:false
          | _ ->
            if
              r.phase <> ""
              && r.clock () -. r.last_render >= r.interval
            then render r ~final:false
        end)

  let finish r =
    Mutex.lock r.m;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock r.m)
      (fun () ->
        if not r.finished then begin
          r.finished <- true;
          render r ~final:true
        end)
end
