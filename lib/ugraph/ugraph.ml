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

(* Streaming parser: one line at a time, fields found in the line in
   place and the edges appended to three growable arrays, so a
   million-edge file costs a line string, a probability token and its
   float per edge, plus the graph's own arrays. SNAP/KONECT exports are
   tab-separated and DOS files carry a trailing CR; both count as blanks
   between fields. The canonical writer comment `# uncertain graph: n
   vertices, m edges` doubles as a truncation guard: when the first
   line carries it, the edge count at end of input must match the
   declared one, and the arrays start at that size. The helpers are
   top-level functions over indices, so a line allocates no closure,
   tuple or option. *)

let is_blank = function ' ' | '\t' | '\r' -> true | _ -> false

(* The first index at or after [i] that is not a blank, and the first
   that is one. *)
let rec skip_blanks line i =
  if i < String.length line && is_blank line.[i] then skip_blanks line (i + 1) else i

let rec token_end line i =
  if i < String.length line && not (is_blank line.[i]) then token_end line (i + 1)
  else i

(* [line.[i .. stop - 1]] read as decimal digits, or -1 if another
   character occurs. *)
let rec digits line i stop acc =
  if i = stop then acc
  else
    match line.[i] with
    | '0' .. '9' as c -> digits line (i + 1) stop ((acc * 10) + Char.code c - Char.code '0')
    | _ -> -1

let bad line why =
  invalid_arg
    (Printf.sprintf "Ugraph.of_channel: %s in edge line %S" why (String.trim line))

(* A vertex id in [[0, n)]: plain decimal digits are read in place,
   without allocating; any other token (a sign, a radix prefix,
   underscores, more than 18 digits) goes through [int_of_string_opt],
   whose syntax the format accepts. *)
let vertex line ~n start stop =
  let x = if stop - start <= 18 then digits line start stop 0 else -1 in
  if x >= 0 && x < n then x
  else
    let s = String.sub line start (stop - start) in
    match int_of_string_opt s with
    | Some x when x >= 0 && x < n -> x
    | Some x -> bad line (Printf.sprintf "vertex id %d outside [0,%d)" x n)
    | None -> bad line (Printf.sprintf "unreadable vertex id %S" s)

(* Edges are reserved at most this many ahead of the ones read, whatever
   count a header declares. *)
let max_reserve = 1 lsl 20

(* [next_line ()] is the next raw line (newline stripped) and raises
   [End_of_file] at the end of input. *)
let parse_stream ~next_line =
  let declared_edges = ref (-1) in
  let first_line = ref true in
  let n = ref (-1) in (* vertex count; -1 = count line not seen yet *)
  let eu = ref [||] and ev = ref [||] and ep = ref [||] in
  let m = ref 0 in
  let reserve cap =
    let grow a zero =
      let b = Array.make cap zero in
      Array.blit a 0 b 0 !m;
      b
    in
    eu := grow !eu 0;
    ev := grow !ev 0;
    ep := grow !ep 0.
  in
  let rec go () =
    match next_line () with
    | exception End_of_file -> ()
    | line ->
      let s1 = skip_blanks line 0 in
      let e1 = token_end line s1 in
      (if s1 = e1 then () (* blank line *)
       else if line.[s1] = '#' then begin
         if !first_line then
           (* the writer's own header arms the truncation guard *)
           match
             Scanf.sscanf line " # uncertain graph: %d vertices, %d edges" (fun _ m' -> m')
           with
           | m' ->
             declared_edges := m';
             reserve (min (max m' 0) max_reserve)
           | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> ()
       end
       else if !n < 0 then begin
         match (skip_blanks line e1 = String.length line,
                int_of_string_opt (String.sub line s1 (e1 - s1))) with
         | true, Some count ->
           check_vertex_count "Ugraph.of_channel" count;
           n := count
         | _ -> invalid_arg "Ugraph.of_channel: bad vertex count line"
       end
       else begin
         let s2 = skip_blanks line e1 in
         let e2 = token_end line s2 in
         let s3 = skip_blanks line e2 in
         let e3 = token_end line s3 in
         if s2 = e2 || s3 = e3 || skip_blanks line e3 < String.length line then
           bad line "expected three fields `u v p`";
         let u = vertex line ~n:!n s1 e1 in
         let v = vertex line ~n:!n s2 e2 in
         let s = String.sub line s3 (e3 - s3) in
         match float_of_string s with
         | exception Failure _ -> bad line (Printf.sprintf "unreadable probability %S" s)
         | p when not (p >= 0. && p <= 1.) ->
           bad line (Printf.sprintf "probability %g outside [0,1]" p)
         | p ->
           if !m = Array.length !eu then reserve (max 1024 (2 * !m));
           !eu.(!m) <- u;
           !ev.(!m) <- v;
           !ep.(!m) <- p;
           incr m
       end);
      first_line := false;
      go ()
  in
  go ();
  if !n < 0 then invalid_arg "Ugraph.of_channel: empty input";
  if !declared_edges >= 0 && !declared_edges <> !m then
    invalid_arg
      (Printf.sprintf
         "Ugraph.of_channel: truncated input: header declares %d edges, got %d"
         !declared_edges !m);
  let fit a = if Array.length a = !m then a else Array.sub a 0 !m in
  build ~n:!n ~eu:(fit !eu) ~ev:(fit !ev) ~ep:(fit !ep)

let of_channel ic = parse_stream ~next_line:(fun () -> input_line ic)

let of_string s =
  let pos = ref 0 in
  parse_stream ~next_line:(fun () ->
      if !pos > String.length s then raise End_of_file;
      let stop =
        match String.index_from_opt s !pos '\n' with
        | Some i -> i
        | None -> String.length s
      in
      let line = String.sub s !pos (stop - !pos) in
      pos := stop + 1;
      line)

let of_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> of_channel ic)

let pp_stats fmt g =
  Format.fprintf fmt "|V|=%d |E|=%d avg_deg=%.2f avg_prob=%.3f" g.n g.m
    (avg_degree g) (avg_prob g)
