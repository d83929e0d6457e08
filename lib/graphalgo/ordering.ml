type strategy =
  | Natural
  | Bfs
  | Dfs
  | Degree
  | Random of int
  | Bfs_from of int list

let strategy_name = function
  | Natural -> "natural"
  | Bfs -> "bfs"
  | Dfs -> "dfs"
  | Degree -> "degree"
  | Random seed -> Printf.sprintf "random(%d)" seed
  | Bfs_from sources ->
    Printf.sprintf "bfs_from(%s)" (String.concat "," (List.map string_of_int sources))

let all_strategies = [ Natural; Bfs; Dfs; Degree; Random 0 ]

(* Emit, for each vertex in [vertex_order], its not-yet-emitted incident
   edges. This keeps each vertex's incident edges contiguous, which is
   the property that keeps frontiers narrow. *)
let edges_by_vertex_order g vertex_order =
  let m = Ugraph.n_edges g in
  let emitted = Array.make m false in
  let out = Array.make m 0 in
  let cursor = ref 0 in
  Array.iter
    (fun v ->
      Ugraph.iter_incident g v (fun ~eid ~other:_ ->
          if not emitted.(eid) then begin
            emitted.(eid) <- true;
            out.(!cursor) <- eid;
            incr cursor
          end))
    vertex_order;
  assert (!cursor = m);
  out

let seed_vertex g =
  (* Lowest-degree non-isolated vertex: starting at the periphery keeps
     early frontiers small. Falls back to 0 on an edgeless graph. *)
  let n = Ugraph.n_vertices g in
  let best = ref 0 and best_deg = ref max_int in
  for v = 0 to n - 1 do
    let d = Ugraph.degree g v in
    if d > 0 && d < !best_deg then begin
      best := v;
      best_deg := d
    end
  done;
  !best

let bfs_vertex_order_from g sources =
  let n = Ugraph.n_vertices g in
  let order = Array.make n 0 in
  let seen = Array.make n false in
  let cursor = ref 0 in
  let queue = Queue.create () in
  let visit v =
    seen.(v) <- true;
    Queue.add v queue
  in
  (* Low-degree sources first: their incident-edge blocks are small and
     carry the most immediately-resolvable mass (a vertex of degree d is
     fully decided after d positions), whereas a hub's block blows the
     frontier up before anything can resolve. Also makes the order
     independent of the callers' terminal-list order. *)
  let sources =
    List.sort
      (fun a b ->
        match Int.compare (Ugraph.degree g a) (Ugraph.degree g b) with
        | 0 -> Int.compare a b
        | c -> c)
      sources
  in
  let drain () =
    while not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      order.(!cursor) <- v;
      incr cursor;
      Ugraph.iter_incident g v (fun ~eid:_ ~other ->
          if not seen.(other) then visit other)
    done
  in
  List.iter (fun v -> if not seen.(v) then visit v) sources;
  drain ();
  for v = 0 to n - 1 do
    if not seen.(v) then begin
      visit v;
      drain ()
    end
  done;
  order

let bfs_vertex_order g = bfs_vertex_order_from g [ seed_vertex g ]

let dfs_vertex_order g =
  let n = Ugraph.n_vertices g in
  let order = Array.make n 0 in
  let seen = Array.make n false in
  let cursor = ref 0 in
  (* Iterative DFS with an explicit (vertex, incidence cursor) stack. *)
  let st_v = Array.make (n + 1) 0 and st_i = Array.make (n + 1) 0 in
  let run root =
    let sp = ref 0 in
    let push v =
      seen.(v) <- true;
      order.(!cursor) <- v;
      incr cursor;
      st_v.(!sp) <- v;
      st_i.(!sp) <- 0;
      incr sp
    in
    push root;
    while !sp > 0 do
      let fr = !sp - 1 in
      let v = st_v.(fr) in
      if st_i.(fr) < Ugraph.degree g v then begin
        let i = st_i.(fr) in
        st_i.(fr) <- i + 1;
        let _, w = Ugraph.incident_get g v i in
        if not seen.(w) then push w
      end
      else decr sp
    done
  in
  run (seed_vertex g);
  for v = 0 to n - 1 do
    if not seen.(v) then run v
  done;
  order

let degree_vertex_order g =
  let n = Ugraph.n_vertices g in
  let order = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      match Int.compare (Ugraph.degree g a) (Ugraph.degree g b) with
      | 0 -> Int.compare a b
      | c -> c)
    order;
  order

let order_edges strategy g =
  let m = Ugraph.n_edges g in
  match strategy with
  | Natural -> Array.init m Fun.id
  | Bfs -> edges_by_vertex_order g (bfs_vertex_order g)
  | Dfs -> edges_by_vertex_order g (dfs_vertex_order g)
  | Degree -> edges_by_vertex_order g (degree_vertex_order g)
  | Random seed ->
    let order = Array.init m Fun.id in
    Prng.shuffle (Prng.create seed) order;
    order
  | Bfs_from sources -> edges_by_vertex_order g (bfs_vertex_order_from g sources)

module Frontier = struct
  type plan = {
    order : int array;
    pos_of_eid : int array;
    first_pos : int array;
    last_pos : int array;
    width : int array;
    max_width : int;
  }

  let first_last (g : Ugraph.t) order =
    let n = g.n and m = g.m in
    if Array.length order <> m then
      invalid_arg "Ordering.Frontier.plan: order length mismatch";
    let seen = Bytes.make m '\000' in
    let first_pos = Array.make n (-1) and last_pos = Array.make n (-1) in
    for pos = 0 to m - 1 do
      let eid = order.(pos) in
      if eid < 0 || eid >= m || Bytes.get seen eid <> '\000' then
        invalid_arg "Ordering.Frontier.plan: order is not a permutation";
      Bytes.set seen eid '\001';
      let u = g.eu.(eid) and v = g.ev.(eid) in
      if first_pos.(u) < 0 then first_pos.(u) <- pos;
      last_pos.(u) <- pos;
      if first_pos.(v) < 0 then first_pos.(v) <- pos;
      last_pos.(v) <- pos
    done;
    (first_pos, last_pos)

  let plan g order =
    let n = Ugraph.n_vertices g and m = Ugraph.n_edges g in
    let first_pos, last_pos = first_last g order in
    let pos_of_eid = Array.make m (-1) in
    Array.iteri (fun pos eid -> pos_of_eid.(eid) <- pos) order;
    let width = Array.make (max m 1) 0 in
    let alive = ref 0 and max_width = ref 0 in
    (* Sweep positions: vertices enter at first_pos, leave after
       last_pos. Count entries/exits per position first. *)
    let enters = Array.make (m + 1) 0 and leaves = Array.make (m + 1) 0 in
    for v = 0 to n - 1 do
      if first_pos.(v) >= 0 then begin
        enters.(first_pos.(v)) <- enters.(first_pos.(v)) + 1;
        leaves.(last_pos.(v)) <- leaves.(last_pos.(v)) + 1
      end
    done;
    for pos = 0 to m - 1 do
      alive := !alive + enters.(pos) - leaves.(pos);
      width.(pos) <- !alive;
      if !alive > !max_width then max_width := !alive
    done;
    { order = Array.copy order; pos_of_eid; first_pos; last_pos; width;
      max_width = !max_width }

  let max_width_of g strategy = (plan g (order_edges strategy g)).max_width
end

let best_order g =
  let candidates = [ Bfs; Dfs; Degree; Natural ] in
  let scored =
    List.map (fun s -> (Frontier.max_width_of g s, order_edges s g)) candidates
  in
  match scored with
  | [] -> assert false
  | (w0, o0) :: rest ->
    let _, best =
      List.fold_left
        (fun (bw, bo) (w, o) -> if w < bw then (w, o) else (bw, bo))
        (w0, o0) rest
    in
    best
