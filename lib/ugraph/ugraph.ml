type edge = { u : int; v : int; p : float }

(* Struct of arrays: edge [i] is [(eu.(i), ev.(i), ep.(i))]; the
   incident edge ids of vertex [x] are [adj_eid.(off.(x)) ..
   adj_eid.(off.(x + 1) - 1)] in increasing id, with [adj_other]
   holding the matching opposite endpoints. Self-loops appear once. *)
type t = {
  n : int;
  m : int;
  eu : int array;
  ev : int array;
  ep : float array;
  off : int array;
  adj_eid : int array;
  adj_other : int array;
}

let max_vertices = 0x7FFF_FFFF

let check_vertex_count what n =
  if n < 0 || n > max_vertices then
    invalid_arg
      (Printf.sprintf "%s: vertex count %d outside [0,%d]" what n max_vertices)

let check_edges ~n eu ev ep =
  for i = 0 to Array.length eu - 1 do
    let u = eu.(i) and v = ev.(i) and p = ep.(i) in
    if u < 0 || u >= n || v < 0 || v >= n then
      invalid_arg
        (Printf.sprintf "Ugraph: edge (%d,%d) outside vertex range [0,%d)" u v n);
    if not (p >= 0. && p <= 1.) then
      invalid_arg (Printf.sprintf "Ugraph: probability %g outside [0,1]" p)
  done

(* Two-pass CSR fill over checked arrays: count each vertex's incident
   endpoints, prefix-sum them into per-vertex end offsets, then scatter
   the edges in decreasing id, each slot taken from its vertex's end, so
   [off] finishes at the start offsets and every incidence list in
   increasing id. A self-loop takes one slot. The per-vertex array is
   the first allocation a vertex count sizes, so an unallocatable one is
   reported like any other bad input. *)
let build ~n ~eu ~ev ~ep =
  let m = Array.length eu in
  let off =
    try Array.make (n + 1) 0
    with Out_of_memory ->
      invalid_arg (Printf.sprintf "Ugraph: cannot allocate %d vertices" n)
  in
  for i = 0 to m - 1 do
    let u = eu.(i) and v = ev.(i) in
    off.(u) <- off.(u) + 1;
    if v <> u then off.(v) <- off.(v) + 1
  done;
  for x = 1 to n - 1 do
    off.(x) <- off.(x) + off.(x - 1)
  done;
  let slots = if n = 0 then 0 else off.(n - 1) in
  off.(n) <- slots;
  let adj_eid = Array.make slots 0 and adj_other = Array.make slots 0 in
  for i = m - 1 downto 0 do
    let u = eu.(i) and v = ev.(i) in
    let k = off.(u) - 1 in
    off.(u) <- k;
    adj_eid.(k) <- i;
    adj_other.(k) <- v;
    if v <> u then begin
      let k = off.(v) - 1 in
      off.(v) <- k;
      adj_eid.(k) <- i;
      adj_other.(k) <- u
    end
  done;
  { n; m; eu; ev; ep; off; adj_eid; adj_other }

let of_arrays ~n ~eu ~ev ~ep =
  if Array.length ev <> Array.length eu || Array.length ep <> Array.length eu then
    invalid_arg "Ugraph.of_arrays: eu/ev/ep length mismatch";
  check_vertex_count "Ugraph" n;
  check_edges ~n eu ev ep;
  build ~n ~eu ~ev ~ep

let create ~n edges =
  let es = Array.of_list edges in
  of_arrays ~n
    ~eu:(Array.map (fun e -> e.u) es)
    ~ev:(Array.map (fun e -> e.v) es)
    ~ep:(Array.map (fun e -> e.p) es)

let n_vertices g = g.n
let n_edges g = g.m
let edge g i = { u = g.eu.(i); v = g.ev.(i); p = g.ep.(i) }
let edges g = Array.init g.m (edge g)

let iter_edges f g =
  for i = 0 to g.m - 1 do
    f i (edge g i)
  done

let fold_edges f init g =
  let acc = ref init in
  for i = 0 to g.m - 1 do
    acc := f !acc i (edge g i)
  done;
  !acc

let degree g v = g.off.(v + 1) - g.off.(v)

let iter_incident g v f =
  for i = g.off.(v) to g.off.(v + 1) - 1 do
    f ~eid:g.adj_eid.(i) ~other:g.adj_other.(i)
  done

let incident_eids g v = Array.sub g.adj_eid g.off.(v) (degree g v)

let incident_get g v i =
  let j = g.off.(v) + i in
  (g.adj_eid.(j), g.adj_other.(j))

let incident_eid g v i = g.adj_eid.(g.off.(v) + i)
let incident_other g v i = g.adj_other.(g.off.(v) + i)

let neighbours g v = Array.sub g.adj_other g.off.(v) (degree g v)

let other_endpoint e v =
  if e.u = v then e.v
  else if e.v = v then e.u
  else invalid_arg "Ugraph.other_endpoint: vertex not an endpoint"

let has_self_loop g =
  let rec go i = i < g.m && (g.eu.(i) = g.ev.(i) || go (i + 1)) in
  go 0

let has_parallel_edge g =
  let seen = Hashtbl.create g.m in
  let rec go i =
    i < g.m
    &&
    let u = g.eu.(i) and v = g.ev.(i) in
    let key = if u <= v then (u, v) else (v, u) in
    Hashtbl.mem seen key
    || begin
      Hashtbl.add seen key ();
      go (i + 1)
    end
  in
  go 0

let avg_degree g =
  if g.n = 0 then 0. else 2. *. float_of_int g.m /. float_of_int g.n

let avg_prob g =
  if g.m = 0 then 0. else Array.fold_left ( +. ) 0. g.ep /. float_of_int g.m

(* Only the probabilities change, so the endpoints and the adjacency
   are shared with [g]. *)
let map_probs f g =
  let ep = Array.init g.m (fun i -> f i (edge g i)) in
  Array.iter
    (fun p ->
      if not (p >= 0. && p <= 1.) then
        invalid_arg (Printf.sprintf "Ugraph: probability %g outside [0,1]" p))
    ep;
  { g with ep }

let induced g vs =
  let new_of_old = Hashtbl.create (Array.length vs) in
  Array.iteri
    (fun new_id old_id ->
      if Hashtbl.mem new_of_old old_id then
        invalid_arg "Ugraph.induced: duplicate vertex";
      if old_id < 0 || old_id >= g.n then
        invalid_arg "Ugraph.induced: vertex out of range";
      Hashtbl.add new_of_old old_id new_id)
    vs;
  let sub_edges = ref [] in
  for i = g.m - 1 downto 0 do
    match (Hashtbl.find_opt new_of_old g.eu.(i), Hashtbl.find_opt new_of_old g.ev.(i)) with
    | Some u', Some v' -> sub_edges := { u = u'; v = v'; p = g.ep.(i) } :: !sub_edges
    | _ -> ()
  done;
  (create ~n:(Array.length vs) !sub_edges, Array.copy vs)

let relabel_terminals ~old_of_new ts =
  let new_of_old = Hashtbl.create (Array.length old_of_new) in
  Array.iteri (fun new_id old_id -> Hashtbl.add new_of_old old_id new_id) old_of_new;
  List.filter_map (fun t -> Hashtbl.find_opt new_of_old t) ts

let validate_terminals g ts =
  if ts = [] then invalid_arg "Ugraph.validate_terminals: empty terminal set";
  let seen = Hashtbl.create 16 in
  List.iter
    (fun t ->
      if t < 0 || t >= g.n then
        invalid_arg (Printf.sprintf "Ugraph.validate_terminals: vertex %d out of range" t);
      if Hashtbl.mem seen t then
        invalid_arg (Printf.sprintf "Ugraph.validate_terminals: duplicate terminal %d" t);
      Hashtbl.add seen t ())
    ts

(* ---- text I/O ---- *)

let to_buffer buf g =
  Buffer.add_string buf (Printf.sprintf "# uncertain graph: %d vertices, %d edges\n" g.n g.m);
  Buffer.add_string buf (string_of_int g.n);
  Buffer.add_char buf '\n';
  for i = 0 to g.m - 1 do
    Buffer.add_string buf (Printf.sprintf "%d %d %.17g\n" g.eu.(i) g.ev.(i) g.ep.(i))
  done

let to_channel oc g =
  let buf = Buffer.create 65536 in
  to_buffer buf g;
  Buffer.output_buffer oc buf

let to_file path g =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> to_channel oc g)

(* The one edge-list scanner, under this text format and under
   [Bingraph.Snap]: lines cut out of one buffer, fields found and plain
   decimal ids read in place, so a line allocates nothing until a
   format hands its probability token to [float_of_string]. *)
module Scan = struct
  (* A line longer than this doubles the buffer. *)
  let buffer_bytes = 65536

  (* [input buf pos len] into the buffer at its held tail; every
     newline ends a line, and the bytes after the last one (the start
     of the next line) move to the front before the next read. *)
  let lines input f =
    let buf = ref (Bytes.create buffer_bytes) in
    let held = ref 0 in
    let reading = ref true in
    while !reading do
      if !held = Bytes.length !buf then begin
        let wider = Bytes.create (2 * !held) in
        Bytes.blit !buf 0 wider 0 !held;
        buf := wider
      end;
      let b = !buf in
      let got = input b !held (Bytes.length b - !held) in
      if got = 0 then begin
        if !held > 0 then f b 0 !held;
        reading := false
      end
      else begin
        let stop = !held + got in
        let start = ref 0 in
        for i = !held to stop - 1 do
          if Bytes.unsafe_get b i = '\n' then begin
            f b !start i;
            start := i + 1
          end
        done;
        held := stop - !start;
        Bytes.blit b !start b 0 !held
      end
    done

  let string_input s =
    let pos = ref 0 in
    fun buf at len ->
      let k = min len (String.length s - !pos) in
      Bytes.blit_string s !pos buf at k;
      pos := !pos + k;
      k

  let[@inline] check_span b i stop =
    if i < 0 || stop > Bytes.length b then
      invalid_arg "Ugraph.Scan: span outside the buffer"

  (* Every blank sorts at or below ' ', so a field byte costs one
     comparison. *)
  let[@inline] is_blank c = c <= ' ' && (c = ' ' || c = '\t' || c = '\r')

  let skip_blanks b i stop =
    check_span b i stop;
    let i = ref i in
    while !i < stop && is_blank (Bytes.unsafe_get b !i) do incr i done;
    !i

  let token_end b i stop =
    check_span b i stop;
    let i = ref i in
    while !i < stop && not (is_blank (Bytes.unsafe_get b !i)) do incr i done;
    !i

  (* At most 18 digits, so the value fits an OCaml int. *)
  let decimal b i stop =
    check_span b i stop;
    if stop - i > 18 then -1
    else begin
      let acc = ref 0 and i = ref i in
      while !i < stop && !acc >= 0 do
        (match Bytes.unsafe_get b !i with
         | '0' .. '9' as c -> acc := (!acc * 10) + Char.code c - Char.code '0'
         | _ -> acc := -1);
        incr i
      done;
      !acc
    end

  type edges = {
    mutable eu : int array;
    mutable ev : int array;
    mutable ep : float array;
    mutable len : int;
  }

  let edges capacity =
    { eu = Array.make capacity 0; ev = Array.make capacity 0;
      ep = Array.make capacity 0.; len = 0 }

  let push es u v p =
    if es.len = Array.length es.eu then begin
      let cap = max 1024 (2 * es.len) in
      let grow a zero =
        let b = Array.make cap zero in
        Array.blit a 0 b 0 es.len;
        b
      in
      es.eu <- grow es.eu 0;
      es.ev <- grow es.ev 0;
      es.ep <- grow es.ep 0.
    end;
    es.eu.(es.len) <- u;
    es.ev.(es.len) <- v;
    es.ep.(es.len) <- p;
    es.len <- es.len + 1
end

(* The text reader, on the scanner. The canonical writer comment `#
   uncertain graph: n vertices, m edges` doubles as a truncation guard:
   when the first line carries it, the edge count at end of input must
   match the declared one, and the arrays start at that size. Messages
   quote the offending line, trimmed. *)

let bad b start stop why =
  invalid_arg
    (Printf.sprintf "Ugraph.of_channel: %s in edge line %S" why
       (String.trim (Bytes.sub_string b start (stop - start))))

(* A vertex id in [[0, n)] from the token [b.[i .. j - 1]] of the line
   [b.[start .. stop - 1]]: plain decimal digits are read in place; any
   other token (a sign, a radix prefix, underscores, more than 18
   digits) goes through [int_of_string_opt], whose syntax the format
   accepts. *)
let vertex b ~n start stop i j =
  let x = Scan.decimal b i j in
  if x >= 0 && x < n then x
  else
    let s = Bytes.sub_string b i (j - i) in
    match int_of_string_opt s with
    | Some x when x >= 0 && x < n -> x
    | Some x -> bad b start stop (Printf.sprintf "vertex id %d outside [0,%d)" x n)
    | None -> bad b start stop (Printf.sprintf "unreadable vertex id %S" s)

(* Edges are reserved at most this many ahead of the ones read, whatever
   count a header declares. *)
let max_reserve = 1 lsl 20

let parse input =
  let declared_edges = ref (-1) in
  let first_line = ref true in
  let n = ref (-1) in (* vertex count; -1 = count line not seen yet *)
  let es = ref (Scan.edges 0) in
  Scan.lines input (fun b start stop ->
      let s1 = Scan.skip_blanks b start stop in
      let e1 = Scan.token_end b s1 stop in
      (if s1 = e1 then () (* blank line *)
       else if Bytes.get b s1 = '#' then begin
         if !first_line then
           (* the writer's own header arms the truncation guard *)
           match
             Scanf.sscanf (Bytes.sub_string b start (stop - start))
               " # uncertain graph: %d vertices, %d edges" (fun _ m' -> m')
           with
           | m' ->
             declared_edges := m';
             es := Scan.edges (min (max m' 0) max_reserve)
           | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> ()
       end
       else if !n < 0 then begin
         match (Scan.skip_blanks b e1 stop = stop,
                int_of_string_opt (Bytes.sub_string b s1 (e1 - s1))) with
         | true, Some count ->
           check_vertex_count "Ugraph.of_channel" count;
           n := count
         | _ -> invalid_arg "Ugraph.of_channel: bad vertex count line"
       end
       else begin
         let s2 = Scan.skip_blanks b e1 stop in
         let e2 = Scan.token_end b s2 stop in
         let s3 = Scan.skip_blanks b e2 stop in
         let e3 = Scan.token_end b s3 stop in
         if s2 = e2 || s3 = e3 || Scan.skip_blanks b e3 stop < stop then
           bad b start stop "expected three fields `u v p`";
         let u = vertex b ~n:!n start stop s1 e1 in
         let v = vertex b ~n:!n start stop s2 e2 in
         let s = Bytes.sub_string b s3 (e3 - s3) in
         match float_of_string s with
         | exception Failure _ ->
           bad b start stop (Printf.sprintf "unreadable probability %S" s)
         | p when not (p >= 0. && p <= 1.) ->
           bad b start stop (Printf.sprintf "probability %g outside [0,1]" p)
         | p -> Scan.push !es u v p
       end);
      first_line := false);
  let es = !es in
  if !n < 0 then invalid_arg "Ugraph.of_channel: empty input";
  if !declared_edges >= 0 && !declared_edges <> es.len then
    invalid_arg
      (Printf.sprintf
         "Ugraph.of_channel: truncated input: header declares %d edges, got %d"
         !declared_edges es.len);
  let fit a = if Array.length a = es.len then a else Array.sub a 0 es.len in
  build ~n:!n ~eu:(fit es.eu) ~ev:(fit es.ev) ~ep:(fit es.ep)

let of_channel ic = parse (input ic)
let of_string s = parse (Scan.string_input s)

let of_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> of_channel ic)

let pp_stats fmt g =
  Format.fprintf fmt "|V|=%d |E|=%d avg_deg=%.2f avg_prob=%.3f" g.n g.m
    (avg_degree g) (avg_prob g)
