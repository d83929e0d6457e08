module Csr = Kernel.Csr

let check_pair g ~source ~target =
  let n = Ugraph.n_vertices g in
  if source < 0 || source >= n || target < 0 || target >= n then
    invalid_arg "Reach: vertex out of range";
  if source = target then invalid_arg "Reach: source equals target"

let check_samples samples = if samples <= 0 then invalid_arg "Reach: samples <= 0"

let two_terminal ?config g ~source ~target =
  check_pair g ~source ~target;
  Netrel.Reliability.estimate ?config g ~terminals:[ source; target ]

type estimate = {
  value : float;
  samples_used : int;
  hits : int;
}

(* ---- the one breadth-first search ---- *)

(* Search state over one snapshot's adjacency, reused across worlds.
   Position [pos] is present in the world being searched iff
   [present.(pos) = world]: starting a world bumps [world], which clears
   the last world's marks without an O(m) pass. [dist.(v)] is [v]'s hop
   distance from the sources, -1 while unreached, and
   [queue.(0 .. reached - 1)] lists the reached vertices in visiting
   order, so the next search resets only what this one touched. *)
type bfs = {
  c : Csr.t;
  present : int array;
  mutable world : int;
  dist : int array;
  queue : int array;
  mutable reached : int;
}

let bfs_create c =
  let n = Csr.n_vertices c in
  { c; present = Array.make (Csr.n_edges c) 0; world = 0;
    dist = Array.make n (-1); queue = Array.make (max n 1) 0; reached = 0 }

let new_world b = b.world <- b.world + 1

(* Breadth-first search of the current world from [sources], at most
   [depth] levels deep, stopping as soon as [target] is reached ([-1]:
   search the whole depth). *)
let search_from b ~sources ~depth ~target =
  let dist = b.dist and queue = b.queue in
  for i = 0 to b.reached - 1 do
    dist.(queue.(i)) <- -1
  done;
  let reached = ref 0 in
  for i = 0 to Array.length sources - 1 do
    let s = sources.(i) in
    if dist.(s) < 0 then begin
      dist.(s) <- 0;
      queue.(!reached) <- s;
      incr reached
    end
  done;
  let off = b.c.Csr.off and adj_pos = b.c.Csr.adj_pos
  and adj_other = b.c.Csr.adj_other in
  let present = b.present and world = b.world in
  let found = ref (target >= 0 && dist.(target) = 0) in
  let head = ref 0 in
  while (not !found) && !head < !reached do
    let v = queue.(!head) in
    incr head;
    let dv = dist.(v) in
    if dv < depth then
      for i = off.(v) to off.(v + 1) - 1 do
        let w = adj_other.(i) in
        if dist.(w) < 0 && present.(adj_pos.(i)) = world then begin
          dist.(w) <- dv + 1;
          queue.(!reached) <- w;
          incr reached;
          if w = target then found := true
        end
      done
  done;
  b.reached <- !reached

let hop_distance c ~present source target =
  if Array.length present <> Csr.n_edges c then
    invalid_arg "Reach.hop_distance: present array length mismatch";
  let b = bfs_create c in
  new_world b;
  Array.iteri (fun pos on -> if on then b.present.(pos) <- b.world) present;
  search_from b ~sources:[| source |] ~depth:max_int ~target;
  if b.dist.(target) >= 0 then Some b.dist.(target) else None

(* The Monte Carlo loop of [distance_constrained_mc] and [search]:
   [samples] possible worlds, each drawn by the flat kernel (one
   Bernoulli per edge in edge-id order from the seed's one stream) and
   searched breadth-first from [sources], [depth] levels deep at most;
   [f b] reads each world's search. *)
let sample_worlds ~seed g ~samples ~sources ~depth ~target f =
  let c = Csr.of_graph g in
  let k = Kernel.scratch () in
  let rng = Prng.create seed in
  let b = bfs_create c in
  let mark pos = b.present.(pos) <- b.world in
  for _ = 1 to samples do
    Kernel.draw k c rng;
    new_world b;
    Kernel.iter_present k c mark;
    search_from b ~sources ~depth ~target;
    f b
  done

(* ---- distance-constrained reachability ---- *)

let check_distance d = if d < 0 then invalid_arg "Reach: negative distance bound"

let distance_constrained_exact g ~source ~target ~d =
  check_pair g ~source ~target;
  check_distance d;
  let m = Ugraph.n_edges g in
  if m > Bddbase.Bruteforce.max_edges then
    invalid_arg
      (Printf.sprintf "Reach.distance_constrained_exact: %d edges > %d" m
         Bddbase.Bruteforce.max_edges);
  let b = bfs_create (Csr.of_graph g) in
  let sources = [| source |] in
  let total = ref 0. in
  for mask = 0 to (1 lsl m) - 1 do
    new_world b;
    let prob = ref 1. in
    for i = 0 to m - 1 do
      let p = g.Ugraph.ep.(i) in
      if mask land (1 lsl i) <> 0 then begin
        b.present.(i) <- b.world;
        prob := !prob *. p
      end
      else prob := !prob *. (1. -. p)
    done;
    if !prob > 0. then begin
      search_from b ~sources ~depth:d ~target;
      if b.dist.(target) >= 0 then total := !total +. !prob
    end
  done;
  !total

let distance_constrained_mc ?(seed = 1) g ~source ~target ~d ~samples =
  check_pair g ~source ~target;
  check_distance d;
  check_samples samples;
  let hits = ref 0 in
  sample_worlds ~seed g ~samples ~sources:[| source |] ~depth:d ~target
    (fun b -> if b.dist.(target) >= 0 then incr hits);
  {
    value = float_of_int !hits /. float_of_int samples;
    samples_used = samples;
    hits = !hits;
  }

(* ---- reliability search ---- *)

type hit = {
  vertex : int;
  reliability : float;
}

let search ?(seed = 1) g ~sources ~eta ~samples =
  Ugraph.validate_terminals g sources;
  if not (eta >= 0. && eta <= 1.) then invalid_arg "Reach.search: eta outside [0,1]";
  check_samples samples;
  let counts = Array.make (Ugraph.n_vertices g) 0 in
  sample_worlds ~seed g ~samples ~sources:(Array.of_list sources)
    ~depth:max_int ~target:(-1) (fun b ->
      for i = 0 to b.reached - 1 do
        let v = b.queue.(i) in
        counts.(v) <- counts.(v) + 1
      done);
  let is_source = Array.make (Array.length counts) false in
  List.iter (fun v -> is_source.(v) <- true) sources;
  let s = float_of_int samples in
  let hits = ref [] in
  Array.iteri
    (fun v c ->
      let r = float_of_int c /. s in
      if r >= eta && not is_source.(v) then
        hits := { vertex = v; reliability = r } :: !hits)
    counts;
  List.sort
    (fun a b ->
      match Float.compare b.reliability a.reliability with
      | 0 -> Int.compare a.vertex b.vertex
      | c -> c)
    !hits
