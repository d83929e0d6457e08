type t = {
  comp_of_vertex : int array;
  n_comps : int;
  is_bridge : bool array;
  tree_off : int array;
  tree_nbr : int array;
  tree_eid : int array;
  terminal_count : int array;
}

let build (g : Ugraph.t) ~terminals =
  Ugraph.validate_terminals g terminals;
  let is_bridge = Bridges.bridges g in
  let comp_of_vertex, n_comps = Bridges.components g ~is_bridge in
  (* Tree edges as CSR slots per supernode: count, prefix-sum, place. *)
  let tree_off = Array.make (n_comps + 1) 0 in
  let m = g.m in
  for eid = 0 to m - 1 do
    if is_bridge.(eid) then begin
      let cu = comp_of_vertex.(g.eu.(eid)) + 1 and cv = comp_of_vertex.(g.ev.(eid)) + 1 in
      tree_off.(cu) <- tree_off.(cu) + 1;
      tree_off.(cv) <- tree_off.(cv) + 1
    end
  done;
  for c = 1 to n_comps do
    tree_off.(c) <- tree_off.(c) + tree_off.(c - 1)
  done;
  let slots = tree_off.(n_comps) in
  let tree_nbr = Array.make slots 0 and tree_eid = Array.make slots 0 in
  let cursor = Array.sub tree_off 0 n_comps in
  let put c c' eid =
    tree_nbr.(cursor.(c)) <- c';
    tree_eid.(cursor.(c)) <- eid;
    cursor.(c) <- cursor.(c) + 1
  in
  for eid = 0 to m - 1 do
    if is_bridge.(eid) then begin
      let cu = comp_of_vertex.(g.eu.(eid)) and cv = comp_of_vertex.(g.ev.(eid)) in
      put cu cv eid;
      put cv cu eid
    end
  done;
  let terminal_count = Array.make n_comps 0 in
  List.iter
    (fun t ->
      let c = comp_of_vertex.(t) in
      terminal_count.(c) <- terminal_count.(c) + 1)
    terminals;
  { comp_of_vertex; n_comps; is_bridge; tree_off; tree_nbr; tree_eid; terminal_count }

(* The tree of the forest holding the first terminal-bearing supernode,
   as a membership mask (breadth-first from it); [None] when some
   terminal-bearing supernode lies in another tree. *)
let terminal_tree bt =
  let nc = bt.n_comps in
  let first = ref 0 in
  while !first < nc && bt.terminal_count.(!first) = 0 do
    incr first
  done;
  let in_tree = Array.make nc false in
  if !first < nc then begin
    let queue = Array.make nc 0 in
    in_tree.(!first) <- true;
    queue.(0) <- !first;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let c = queue.(!head) in
      incr head;
      for j = bt.tree_off.(c) to bt.tree_off.(c + 1) - 1 do
        let c' = bt.tree_nbr.(j) in
        if not in_tree.(c') then begin
          in_tree.(c') <- true;
          queue.(!tail) <- c';
          incr tail
        end
      done
    done
  end;
  let separated = ref false in
  for c = 0 to nc - 1 do
    if bt.terminal_count.(c) > 0 && not in_tree.(c) then separated := true
  done;
  if !separated then None else Some in_tree

let terminals_separated bt = terminal_tree bt = None

let steiner_keep bt =
  match terminal_tree bt with
  | None -> Array.make bt.n_comps false
  | Some keep ->
    (* Iteratively strip terminal-free leaves of the kept tree. The
       minimal subtree spanning the terminal supernodes is unique, so
       the worklist order does not matter. Every push but the initial
       one follows a tree-slot decrement, which bounds the stack. *)
    let live_degree = Array.make bt.n_comps 0 in
    let stack = Array.make (bt.n_comps + Array.length bt.tree_nbr) 0 in
    let sp = ref 0 in
    let strippable c = keep.(c) && live_degree.(c) <= 1 && bt.terminal_count.(c) = 0 in
    for c = 0 to bt.n_comps - 1 do
      if keep.(c) then begin
        live_degree.(c) <- bt.tree_off.(c + 1) - bt.tree_off.(c);
        if strippable c then begin
          stack.(!sp) <- c;
          incr sp
        end
      end
    done;
    while !sp > 0 do
      decr sp;
      let c = stack.(!sp) in
      if strippable c then begin
        keep.(c) <- false;
        for j = bt.tree_off.(c) to bt.tree_off.(c + 1) - 1 do
          let c' = bt.tree_nbr.(j) in
          if keep.(c') then begin
            live_degree.(c') <- live_degree.(c') - 1;
            if strippable c' then begin
              stack.(!sp) <- c';
              incr sp
            end
          end
        done
      end
    done;
    keep

let kept_vertices bt keep =
  Array.map (fun c -> keep.(c)) bt.comp_of_vertex

let kept_bridges bt keep =
  let out = Hashtbl.create 64 in
  for c = 0 to bt.n_comps - 1 do
    if keep.(c) then
      for j = bt.tree_off.(c) to bt.tree_off.(c + 1) - 1 do
        if keep.(bt.tree_nbr.(j)) then Hashtbl.replace out bt.tree_eid.(j) ()
      done
  done;
  out
