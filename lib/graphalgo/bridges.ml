type result = {
  is_bridge : bool array;
  is_articulation : bool array;
}

(* Iterative Tarjan low-link DFS. The explicit stack stores, per frame:
   the vertex, the edge id used to enter it (-1 at a root), and a cursor
   into its incidence list. Low-link propagation to the parent happens at
   frame pop. The incidence is read through the allocation-free CSR
   accessors and [push] is built once per pass, so a whole pass
   allocates only its result and stack arrays. *)
let run g =
  let n = Ugraph.n_vertices g and m = Ugraph.n_edges g in
  let disc = Array.make n (-1) in
  let low = Array.make n max_int in
  let is_bridge = Array.make m false in
  let is_articulation = Array.make n false in
  let time = ref 0 in
  (* Frame stacks; a DFS path never exceeds n frames. *)
  let st_v = Array.make (n + 1) 0 in
  let st_eid = Array.make (n + 1) (-1) in
  let st_idx = Array.make (n + 1) 0 in
  let sp = ref 0 in
  let push v eid =
    st_v.(!sp) <- v;
    st_eid.(!sp) <- eid;
    st_idx.(!sp) <- 0;
    incr sp;
    disc.(v) <- !time;
    low.(v) <- !time;
    incr time
  in
  for root = 0 to n - 1 do
    if disc.(root) < 0 then begin
      let root_children = ref 0 in
      push root (-1);
      while !sp > 0 do
        let fr = !sp - 1 in
        let v = st_v.(fr) in
        let i = st_idx.(fr) in
        if i < Ugraph.degree g v then begin
          st_idx.(fr) <- i + 1;
          let eid = Ugraph.incident_eid g v i in
          let w = Ugraph.incident_other g v i in
          if eid <> st_eid.(fr) && w <> v then begin
            if disc.(w) < 0 then begin
              if v = root then incr root_children;
              push w eid
            end
            else if disc.(w) < low.(v) then low.(v) <- disc.(w)
          end
        end
        else begin
          (* Pop and propagate to the parent frame, if any. *)
          decr sp;
          if !sp > 0 then begin
            let u = st_v.(!sp - 1) in
            if low.(v) < low.(u) then low.(u) <- low.(v);
            if low.(v) > disc.(u) then is_bridge.(st_eid.(fr)) <- true;
            if u <> root && low.(v) >= disc.(u) then is_articulation.(u) <- true
          end
        end
      done;
      if !root_children >= 2 then is_articulation.(root) <- true
    end
  done;
  { is_bridge; is_articulation }

let bridges g = (run g).is_bridge
let articulation_points g = (run g).is_articulation

let bridge_eids g =
  let b = bridges g in
  let acc = ref [] in
  for i = Array.length b - 1 downto 0 do
    if b.(i) then acc := i :: !acc
  done;
  !acc

let components (g : Ugraph.t) ~is_bridge =
  let n = g.n in
  let dsu = Dsu.create n in
  for eid = 0 to g.m - 1 do
    if not is_bridge.(eid) then ignore (Dsu.union dsu g.eu.(eid) g.ev.(eid))
  done;
  let comp = Array.make n (-1) in
  let count = ref 0 in
  for v = 0 to n - 1 do
    let r = Dsu.find dsu v in
    if comp.(r) < 0 then begin
      comp.(r) <- !count;
      incr count
    end;
    comp.(v) <- comp.(r)
  done;
  (comp, !count)

let two_edge_components g = components g ~is_bridge:(bridges g)

let naive_bridges (g : Ugraph.t) =
  let m = g.m in
  let out = Array.make m false in
  let present = Array.make m true in
  for eid = 0 to m - 1 do
    let u = g.eu.(eid) and v = g.ev.(eid) in
    if u <> v then begin
      present.(eid) <- false;
      out.(eid) <- not (Connectivity.terminals_connected g ~present [ u; v ]);
      present.(eid) <- true
    end
  done;
  out
