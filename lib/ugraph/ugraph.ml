type edge = { u : int; v : int; p : float }

(* CSR adjacency: the incident edge ids of vertex [v] are
   [eid.(offsets.(v)) .. eid.(offsets.(v+1) - 1)], with [nbr] holding the
   matching opposite endpoints. Self-loops appear once. *)
type t = {
  n : int;
  edge_arr : edge array;
  offsets : int array;
  nbr : int array;
  eid : int array;
}

let check_edge n e =
  if e.u < 0 || e.u >= n || e.v < 0 || e.v >= n then
    invalid_arg
      (Printf.sprintf "Ugraph: edge (%d,%d) outside vertex range [0,%d)" e.u e.v n);
  if Float.is_nan e.p || e.p < 0. || e.p > 1. then
    invalid_arg (Printf.sprintf "Ugraph: probability %g outside [0,1]" e.p)

let build n edge_arr =
  Array.iter (check_edge n) edge_arr;
  let deg = Array.make n 0 in
  let bump v = deg.(v) <- deg.(v) + 1 in
  Array.iter
    (fun e ->
      bump e.u;
      if e.v <> e.u then bump e.v)
    edge_arr;
  let offsets = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    offsets.(v + 1) <- offsets.(v) + deg.(v)
  done;
  let m2 = offsets.(n) in
  let nbr = Array.make m2 0 and eid = Array.make m2 0 in
  let cursor = Array.copy offsets in
  let put v other i =
    nbr.(cursor.(v)) <- other;
    eid.(cursor.(v)) <- i;
    cursor.(v) <- cursor.(v) + 1
  in
  Array.iteri
    (fun i e ->
      put e.u e.v i;
      if e.v <> e.u then put e.v e.u i)
    edge_arr;
  { n; edge_arr; offsets; nbr; eid }

let of_arrays ~n edges = build n (Array.copy edges)
let create ~n edges = build n (Array.of_list edges)

let n_vertices g = g.n
let n_edges g = Array.length g.edge_arr
let edge g i = g.edge_arr.(i)
let edges g = Array.copy g.edge_arr
let iter_edges f g = Array.iteri f g.edge_arr

let fold_edges f init g =
  let acc = ref init in
  Array.iteri (fun i e -> acc := f !acc i e) g.edge_arr;
  !acc

let degree g v = g.offsets.(v + 1) - g.offsets.(v)

let iter_incident g v f =
  for i = g.offsets.(v) to g.offsets.(v + 1) - 1 do
    f ~eid:g.eid.(i) ~other:g.nbr.(i)
  done

let incident_eids g v =
  Array.sub g.eid g.offsets.(v) (degree g v)

let incident_get g v i =
  let j = g.offsets.(v) + i in
  (g.eid.(j), g.nbr.(j))

let incident_eid g v i = g.eid.(g.offsets.(v) + i)
let incident_other g v i = g.nbr.(g.offsets.(v) + i)

let neighbours g v = Array.sub g.nbr g.offsets.(v) (degree g v)

let other_endpoint e v =
  if e.u = v then e.v
  else if e.v = v then e.u
  else invalid_arg "Ugraph.other_endpoint: vertex not an endpoint"

let has_self_loop g = Array.exists (fun e -> e.u = e.v) g.edge_arr

let has_parallel_edge g =
  let seen = Hashtbl.create (n_edges g) in
  Array.exists
    (fun e ->
      let key = if e.u <= e.v then (e.u, e.v) else (e.v, e.u) in
      if Hashtbl.mem seen key then true
      else begin
        Hashtbl.add seen key ();
        false
      end)
    g.edge_arr

let avg_degree g =
  if g.n = 0 then 0. else 2. *. float_of_int (n_edges g) /. float_of_int g.n

let avg_prob g =
  let m = n_edges g in
  if m = 0 then 0.
  else Array.fold_left (fun acc e -> acc +. e.p) 0. g.edge_arr /. float_of_int m

let map_probs f g =
  build g.n (Array.mapi (fun i e -> { e with p = f i e }) g.edge_arr)

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
  Array.iter
    (fun e ->
      match (Hashtbl.find_opt new_of_old e.u, Hashtbl.find_opt new_of_old e.v) with
      | Some u', Some v' -> sub_edges := { u = u'; v = v'; p = e.p } :: !sub_edges
      | _ -> ())
    g.edge_arr;
  (create ~n:(Array.length vs) (List.rev !sub_edges), Array.copy vs)

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
  Buffer.add_string buf (Printf.sprintf "# uncertain graph: %d vertices, %d edges\n" g.n (n_edges g));
  Buffer.add_string buf (string_of_int g.n);
  Buffer.add_char buf '\n';
  Array.iter
    (fun e -> Buffer.add_string buf (Printf.sprintf "%d %d %.17g\n" e.u e.v e.p))
    g.edge_arr

let to_channel oc g =
  let buf = Buffer.create 65536 in
  to_buffer buf g;
  Buffer.output_buffer oc buf

let to_file path g =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> to_channel oc g)

(* Streaming parser: lines are read one at a time into a reusable
   buffer and fields are sliced out of it in place, so parsing a
   million-edge file allocates three short token strings per edge
   instead of the whole file as a line list plus a per-line field
   list. SNAP/KONECT exports are tab-separated and DOS files carry a
   trailing CR; both count as blanks between fields. The canonical
   writer comment `# uncertain graph: n vertices, m edges` doubles as
   a truncation guard: when the first line carries it, the edge count
   at end of input must match the declared one. *)

let is_blank = function ' ' | '\t' | '\r' -> true | _ -> false

(* [next_line buf] refills [buf] with the next raw line (newline
   stripped) and returns false at end of input with nothing read. *)
let parse_stream ~next_line =
  let buf = Buffer.create 256 in
  let declared_edges = ref (-1) in
  let first_line = ref true in
  let n = ref (-1) in (* vertex count; -1 = count line not seen yet *)
  let edges = ref [] in
  let m = ref 0 in
  let token_from pos =
    let len = Buffer.length buf in
    let i = ref pos in
    while !i < len && is_blank (Buffer.nth buf !i) do incr i done;
    if !i >= len then None
    else begin
      let start = !i in
      while !i < len && not (is_blank (Buffer.nth buf !i)) do incr i done;
      Some (start, !i)
    end
  in
  let sub (start, stop) = Buffer.sub buf start (stop - start) in
  let bad why =
    invalid_arg
      (Printf.sprintf "Ugraph.of_channel: %s in edge line %S" why
         (String.trim (Buffer.contents buf)))
  in
  let rec go () =
    if next_line buf then begin
      (match token_from 0 with
       | None -> () (* blank line *)
       | Some (start, _) when Buffer.nth buf start = '#' ->
         if !first_line then
           (* the writer's own header arms the truncation guard *)
           (try
              Scanf.sscanf (Buffer.contents buf)
                " # uncertain graph: %d vertices, %d edges" (fun _ m ->
                  declared_edges := m)
            with Scanf.Scan_failure _ | Failure _ | End_of_file -> ())
       | Some t1 ->
         if !n < 0 then begin
           match token_from (snd t1), int_of_string_opt (sub t1) with
           | None, Some count -> n := count
           | _ -> invalid_arg "Ugraph.of_channel: bad vertex count line"
         end
         else begin
           let t2 = token_from (snd t1) in
           let t3 = Option.bind t2 (fun t -> token_from (snd t)) in
           let t4 = Option.bind t3 (fun t -> token_from (snd t)) in
           match (t2, t3, t4) with
           | Some t2, Some t3, None ->
             let vertex span =
               let s = sub span in
               match int_of_string_opt s with
               | Some x when x >= 0 && x < !n -> x
               | Some x -> bad (Printf.sprintf "vertex id %d outside [0,%d)" x !n)
               | None -> bad (Printf.sprintf "unreadable vertex id %S" s)
             in
             let u = vertex t1 and v = vertex t2 in
             let p =
               let s = sub t3 in
               match float_of_string_opt s with
               | Some p when (not (Float.is_nan p)) && p >= 0. && p <= 1. -> p
               | Some p -> bad (Printf.sprintf "probability %g outside [0,1]" p)
               | None -> bad (Printf.sprintf "unreadable probability %S" s)
             in
             edges := { u; v; p } :: !edges;
             incr m
           | _ -> bad "expected three fields `u v p`"
         end);
      first_line := false;
      go ()
    end
  in
  go ();
  if !n < 0 then invalid_arg "Ugraph.of_channel: empty input";
  if !declared_edges >= 0 && !declared_edges <> !m then
    invalid_arg
      (Printf.sprintf
         "Ugraph.of_channel: truncated input: header declares %d edges, got %d"
         !declared_edges !m);
  create ~n:!n (List.rev !edges)

let of_channel ic =
  parse_stream ~next_line:(fun buf ->
      Buffer.clear buf;
      let rec go got =
        match input_char ic with
        | '\n' -> true
        | c ->
          Buffer.add_char buf c;
          go true
        | exception End_of_file -> got
      in
      go false)

let of_string s =
  let pos = ref 0 in
  parse_stream ~next_line:(fun buf ->
      Buffer.clear buf;
      if !pos > String.length s then false
      else begin
        let stop =
          match String.index_from_opt s !pos '\n' with
          | Some i -> i
          | None -> String.length s
        in
        Buffer.add_substring buf s !pos (stop - !pos);
        pos := stop + 1;
        true
      end)

let of_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> of_channel ic)

let pp_stats fmt g =
  Format.fprintf fmt "|V|=%d |E|=%d avg_deg=%.2f avg_prob=%.3f" g.n (n_edges g)
    (avg_degree g) (avg_prob g)
