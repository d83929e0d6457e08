module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  exception Parse_error of string

  let escape_into b s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s

  (* Deterministic float text: the shortest of %.12g / %.17g that
     round-trips, with a trailing ".0" forced onto integral values so
     the token stays a JSON float. *)
  let float_repr x =
    let s = Printf.sprintf "%.12g" x in
    let s = if float_of_string s = x then s else Printf.sprintf "%.17g" x in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E' || c = 'n') s then s
    else s ^ ".0"

  let to_string ?(pretty = false) v =
    let b = Buffer.create 256 in
    let pad level = if pretty then Buffer.add_string b (String.make (2 * level) ' ') in
    let nl () = if pretty then Buffer.add_char b '\n' in
    let colon = if pretty then ": " else ":" in
    let rec emit level v =
      match v with
      | Null -> Buffer.add_string b "null"
      | Bool v -> Buffer.add_string b (if v then "true" else "false")
      | Int i -> Buffer.add_string b (string_of_int i)
      | Float x ->
          if Float.is_finite x then Buffer.add_string b (float_repr x)
          else Buffer.add_string b "null"
      | Str s ->
          Buffer.add_char b '"';
          escape_into b s;
          Buffer.add_char b '"'
      | List [] -> Buffer.add_string b "[]"
      | List xs ->
          Buffer.add_char b '[';
          nl ();
          List.iteri
            (fun i x ->
              if i > 0 then (Buffer.add_char b ','; nl ());
              pad (level + 1);
              emit (level + 1) x)
            xs;
          nl ();
          pad level;
          Buffer.add_char b ']'
      | Obj [] -> Buffer.add_string b "{}"
      | Obj kvs ->
          Buffer.add_char b '{';
          nl ();
          List.iteri
            (fun i (k, x) ->
              if i > 0 then (Buffer.add_char b ','; nl ());
              pad (level + 1);
              Buffer.add_char b '"';
              escape_into b k;
              Buffer.add_char b '"';
              Buffer.add_string b colon;
              emit (level + 1) x)
            kvs;
          nl ();
          pad level;
          Buffer.add_char b '}'
    in
    emit 0 v;
    Buffer.contents b

  let of_string_exn s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg =
      raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos))
    in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let skip_ws () =
      while
        !pos < n
        && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      do
        incr pos
      done
    in
    let expect c =
      if !pos < n && s.[!pos] = c then incr pos
      else fail (Printf.sprintf "expected '%c'" c)
    in
    let literal lit v =
      let l = String.length lit in
      if !pos + l <= n && String.sub s !pos l = lit then (
        pos := !pos + l;
        v)
      else fail "invalid literal"
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string";
        let c = s.[!pos] in
        incr pos;
        if c = '"' then Buffer.contents b
        else if c = '\\' then (
          if !pos >= n then fail "truncated escape";
          let e = s.[!pos] in
          incr pos;
          (match e with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'u' ->
              if !pos + 4 > n then fail "truncated \\u escape";
              let cp =
                match int_of_string_opt ("0x" ^ String.sub s !pos 4) with
                | Some cp -> cp
                | None -> fail "bad \\u escape"
              in
              pos := !pos + 4;
              (* BMP-only UTF-8 encoding; enough for our own output. *)
              if cp < 0x80 then Buffer.add_char b (Char.chr cp)
              else if cp < 0x800 then (
                Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
                Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F))))
              else (
                Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
                Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
                Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F))))
          | _ -> fail "unknown escape");
          go ())
        else (
          Buffer.add_char b c;
          go ())
      in
      go ()
    in
    let parse_number () =
      let start = !pos in
      let numeric c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && numeric s.[!pos] do
        incr pos
      done;
      let tok = String.sub s start (!pos - start) in
      if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') tok then
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> fail "bad number"
      else
        match int_of_string_opt tok with
        | Some i -> Int i
        | None -> (
            match float_of_string_opt tok with
            | Some f -> Float f
            | None -> fail "bad number")
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '{' ->
          incr pos;
          skip_ws ();
          if peek () = Some '}' then (
            incr pos;
            Obj [])
          else
            let rec fields acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  incr pos;
                  fields ((k, v) :: acc)
              | Some '}' ->
                  incr pos;
                  Obj (List.rev ((k, v) :: acc))
              | _ -> fail "expected ',' or '}'"
            in
            fields []
      | Some '[' ->
          incr pos;
          skip_ws ();
          if peek () = Some ']' then (
            incr pos;
            List [])
          else
            let rec elems acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  incr pos;
                  elems (v :: acc)
              | Some ']' ->
                  incr pos;
                  List (List.rev (v :: acc))
              | _ -> fail "expected ',' or ']'"
            in
            elems []
      | Some '"' -> Str (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> parse_number ()
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v

  let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
end

(* Bounded series: when full, keep every other recorded point and
   double the stride, so long trajectories decimate deterministically
   to at most [series_cap] points. *)
let series_cap = 512

type series = {
  mutable values : float array;
  mutable len : int;
  mutable every : int;   (* one recorded point per [every] appends *)
  mutable pending : int; (* appends to skip before the next record *)
}

type counter_r = { mutable c : int }
type gauge_r = { mutable g : float }
type timer_r = { mutable total : float; mutable count : int }
type text_r = { mutable txt : string }

type cell =
  | Counter of counter_r
  | Gauge of gauge_r
  | Timer of timer_r
  | Text of text_r
  | Series of series
  | Hist of Metrics.Histogram.t

type t = {
  on : bool;
  prefix : string;
  cells : (string, cell) Hashtbl.t;
  clock : unit -> float;
}

let zero_clock () = 0.

let disabled = { on = false; prefix = ""; cells = Hashtbl.create 1; clock = zero_clock }

let fake_clock_requested () =
  match Sys.getenv_opt "NETREL_FAKE_CLOCK" with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

(* CLOCK_MONOTONIC via the bechamel stub: immune to wall-clock steps,
   so durations (and the throughput figures derived from them at report
   time) can never go negative or get skewed by NTP adjustments. *)
let monotonic_clock () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let default_clock () =
  if fake_clock_requested () then zero_clock else monotonic_clock

let create ?clock () =
  let clock = match clock with Some c -> c | None -> default_clock () in
  { on = true; prefix = ""; cells = Hashtbl.create 64; clock }

let enabled t = t.on
let now t = t.clock ()

let key t name = if t.prefix = "" then name else t.prefix ^ "." ^ name

let sub t p = if (not t.on) || p = "" then t else { t with prefix = key t p }

let fresh_like t =
  if t.on then { t with prefix = ""; cells = Hashtbl.create 64 } else disabled

let kind_clash k = invalid_arg ("Obs: key bound to a different cell kind: " ^ k)

let counter_cell t k =
  match Hashtbl.find_opt t.cells k with
  | Some (Counter r) -> r
  | Some _ -> kind_clash k
  | None ->
      let r = { c = 0 } in
      Hashtbl.add t.cells k (Counter r);
      r

let gauge_cell t k v0 =
  match Hashtbl.find_opt t.cells k with
  | Some (Gauge r) -> r
  | Some _ -> kind_clash k
  | None ->
      let r = { g = v0 } in
      Hashtbl.add t.cells k (Gauge r);
      r

let timer_cell t k =
  match Hashtbl.find_opt t.cells k with
  | Some (Timer r) -> r
  | Some _ -> kind_clash k
  | None ->
      let r = { total = 0.; count = 0 } in
      Hashtbl.add t.cells k (Timer r);
      r

let text_cell t k =
  match Hashtbl.find_opt t.cells k with
  | Some (Text r) -> r
  | Some _ -> kind_clash k
  | None ->
      let r = { txt = "" } in
      Hashtbl.add t.cells k (Text r);
      r

let series_cell t k =
  match Hashtbl.find_opt t.cells k with
  | Some (Series s) -> s
  | Some _ -> kind_clash k
  | None ->
      let s = { values = Array.make series_cap 0.; len = 0; every = 1; pending = 0 } in
      Hashtbl.add t.cells k (Series s);
      s

let hist_cell t k =
  match Hashtbl.find_opt t.cells k with
  | Some (Hist h) -> h
  | Some _ -> kind_clash k
  | None ->
      let h = Metrics.Histogram.create () in
      Hashtbl.add t.cells k (Hist h);
      h

let add t name d =
  if t.on then (
    let r = counter_cell t (key t name) in
    r.c <- r.c + d)

let incr t name = add t name 1

let gauge t name v =
  if t.on then (
    let r = gauge_cell t (key t name) v in
    r.g <- v)

let gauge_max t name v =
  if t.on then (
    let r = gauge_cell t (key t name) v in
    if v > r.g then r.g <- v)

let text t name s =
  if t.on then (
    let r = text_cell t (key t name) in
    r.txt <- s)

let record_span t name dt =
  if t.on then (
    let r = timer_cell t (key t name) in
    r.total <- r.total +. dt;
    r.count <- r.count + 1)

let time t name f =
  if not t.on then f ()
  else
    let t0 = t.clock () in
    Fun.protect
      ~finally:(fun () -> record_span t name (Float.max 0. (t.clock () -. t0)))
      f

let series_push s v =
  if s.pending > 0 then s.pending <- s.pending - 1
  else begin
    if s.len = Array.length s.values then begin
      let half = s.len / 2 in
      for i = 0 to half - 1 do
        s.values.(i) <- s.values.(2 * i)
      done;
      s.len <- half;
      s.every <- s.every * 2
    end;
    s.values.(s.len) <- v;
    s.len <- s.len + 1;
    s.pending <- s.every - 1
  end

let series t name v = if t.on then series_push (series_cell t (key t name)) v

let hist t name v =
  if t.on then Metrics.Histogram.record (hist_cell t (key t name)) v

let ns_of_seconds dt =
  if dt <= 0. then 0 else int_of_float ((dt *. 1e9) +. 0.5)

let hist_seconds t name dt = hist t name (ns_of_seconds dt)

let hist_merge t name h =
  if t.on then Metrics.Histogram.merge ~into:(hist_cell t (key t name)) h

let counter_value t name =
  match Hashtbl.find_opt t.cells (key t name) with
  | Some (Counter r) -> r.c
  | _ -> 0

let gauge_value t name =
  match Hashtbl.find_opt t.cells (key t name) with
  | Some (Gauge r) -> r.g
  | _ -> 0.

let text_value t name =
  match Hashtbl.find_opt t.cells (key t name) with
  | Some (Text r) -> r.txt
  | _ -> ""

let timer_seconds t name =
  match Hashtbl.find_opt t.cells (key t name) with
  | Some (Timer r) -> r.total
  | _ -> 0.

let timer_count t name =
  match Hashtbl.find_opt t.cells (key t name) with
  | Some (Timer r) -> r.count
  | _ -> 0

let series_values t name =
  match Hashtbl.find_opt t.cells (key t name) with
  | Some (Series s) -> Array.sub s.values 0 s.len
  | _ -> [||]

let hist_count t name =
  match Hashtbl.find_opt t.cells (key t name) with
  | Some (Hist h) -> Metrics.Histogram.count h
  | _ -> 0

let hist_quantile t name q =
  match Hashtbl.find_opt t.cells (key t name) with
  | Some (Hist h) -> Metrics.Histogram.quantile h q
  | _ -> 0

let mem t name = Hashtbl.mem t.cells (key t name)

let merge ~into src =
  if into.on && src.on then begin
    let keys =
      Hashtbl.fold (fun k _ acc -> k :: acc) src.cells []
      |> List.sort String.compare
    in
    List.iter
      (fun k ->
        match Hashtbl.find src.cells k with
        | Counter r -> add into k r.c
        | Gauge r -> gauge_max into k r.g
        | Text r -> text into k r.txt
        | Timer r ->
            let d = timer_cell into (key into k) in
            d.total <- d.total +. r.total;
            d.count <- d.count + r.count
        | Series s ->
            let d = series_cell into (key into k) in
            for i = 0 to s.len - 1 do
              series_push d s.values.(i)
            done
        | Hist h ->
            Metrics.Histogram.merge ~into:(hist_cell into (key into k)) h)
      keys
  end

(* GC accounting.  Word and collection deltas accumulate as counters
   (so per-task deltas add up under ordered reduction exactly like
   spans do); the heap high-water mark is a max-gauge.  Under the fake
   clock the cells are still created but pinned to zero — the document
   keeps its shape while staying byte-stable and jobs-invariant. *)

let gc_counters_live () = not (fake_clock_requested ())

let record_gc t name (d : Metrics.Gcstat.delta) =
  if t.on then begin
    add t (name ^ ".minor_words") d.minor_words;
    add t (name ^ ".promoted_words") d.promoted_words;
    add t (name ^ ".major_words") d.major_words;
    add t (name ^ ".minor_collections") d.minor_collections;
    add t (name ^ ".major_collections") d.major_collections;
    add t (name ^ ".compactions") d.compactions;
    gauge_max t (name ^ ".top_heap_words") (float_of_int d.top_heap_words)
  end

let gc_begin t =
  if t.on && gc_counters_live () then Some (Metrics.Gcstat.snapshot ())
  else None

let gc_end = function
  | None -> Metrics.Gcstat.zero
  | Some before ->
      Metrics.Gcstat.delta ~before ~after:(Metrics.Gcstat.snapshot ())

let gc_phase t ?emit name f =
  let live = (t.on || emit <> None) && gc_counters_live () in
  if not live then begin
    record_gc t name Metrics.Gcstat.zero;
    f ()
  end
  else
    let before = Metrics.Gcstat.snapshot () in
    Fun.protect
      ~finally:(fun () ->
        let d =
          Metrics.Gcstat.delta ~before ~after:(Metrics.Gcstat.snapshot ())
        in
        record_gc t name d;
        match emit with
        | None -> ()
        | Some emit ->
            emit (name ^ ".minor_words") (float_of_int d.minor_words);
            emit (name ^ ".major_words") (float_of_int d.major_words);
            emit (name ^ ".top_heap_words") (float_of_int d.top_heap_words))
      f

let cell_json = function
  | Counter r -> Json.Int r.c
  | Gauge r -> Json.Float r.g
  | Text r -> Json.Str r.txt
  | Timer r -> Json.Obj [ ("seconds", Json.Float r.total); ("count", Json.Int r.count) ]
  | Hist h ->
      let module H = Metrics.Histogram in
      Json.Obj
        [
          ("count", Json.Int (H.count h));
          ("max", Json.Int (H.max_value h));
          ("p50", Json.Int (H.quantile h 0.5));
          ("p90", Json.Int (H.quantile h 0.9));
          ("p99", Json.Int (H.quantile h 0.99));
          ( "buckets",
            Json.List
              (List.map
                 (fun (i, c) -> Json.List [ Json.Int i; Json.Int c ])
                 (H.nonzero_buckets h)) );
        ]
  | Series s ->
      Json.Obj
        [
          ("every", Json.Int s.every);
          ("values", Json.List (List.init s.len (fun i -> Json.Float s.values.(i))));
        ]

let to_json t =
  let entries =
    Hashtbl.fold (fun k c acc -> (String.split_on_char '.' k, c) :: acc) t.cells []
    |> List.sort (fun (a, _) (b, _) -> List.compare String.compare a b)
  in
  (* Group sorted dotted paths into a nested object tree. *)
  let rec build entries =
    let rec group = function
      | [] -> []
      | ([], _) :: tl -> group tl (* empty segment: drop *)
      | ((head :: _), _) :: _ as all ->
          let same, others =
            List.partition (fun (p, _) -> match p with h :: _ -> h = head | [] -> false) all
          in
          let inner = List.map (fun (p, c) -> (List.tl p, c)) same in
          (head, inner) :: group others
    in
    Json.Obj
      (List.map
         (fun (head, inner) ->
           let leaves, deeper = List.partition (fun (p, _) -> p = []) inner in
           match (leaves, deeper) with
           | [ (_, c) ], [] -> (head, cell_json c)
           | [], _ -> (head, build deeper)
           | (_, c) :: _, _ -> (
               (* key is both a leaf and a prefix: leaf goes under "value" *)
               match build deeper with
               | Json.Obj fields -> (head, Json.Obj (("value", cell_json c) :: fields))
               | other -> (head, other))
         )
         (group entries))
  in
  build entries
