type result = {
  graph : Ugraph.t;
  terminals : int list;
  old_of_new : int array;
  rounds : int;
}

(* The rounds rewrite one edge sequence held in parallel arrays: edge
   [i] of the current sequence is [(eu.(i), ev.(i), ep.(i))] for [i] in
   [0, m). The sequence order is part of the result (it fixes the
   output edge order and the order of every float product), so each
   stage states what order it emits. Every buffer is allocated once per
   run at the input size; no stage grows the sequence. *)
type st = {
  n : int;
  is_terminal : bool array;
  mutable m : int;
  mutable eu : int array;
  mutable ev : int array;
  mutable ep : float array;
  (* Stage 3 writes its output here, then the two buffers swap. *)
  mutable eu2 : int array;
  mutable ev2 : int array;
  mutable ep2 : float array;
  (* Per-edge scratch. *)
  bucket : int array;   (* stage 2: sequence positions grouped by min endpoint *)
  rep : int array;      (* stage 2: position of the pair's first occurrence *)
  fail : float array;   (* stage 2: failure product per first occurrence *)
  dead : bool array;    (* stage 3: edge consumed by a chain walk *)
  (* Per-vertex scratch. *)
  start : int array;    (* stage 2: bucket offsets, length n + 1 *)
  owner : int array;    (* stage 2: min endpoint whose pair with v was seen *)
  first : int array;    (* stage 2: that pair's first-occurrence position *)
  deg : int array;      (* stages 3 and 4 *)
  lo : int array;       (* stage 3: lower-position incident edge *)
  hi : int array;       (* stage 3: higher-position incident edge *)
  visited : bool array; (* stage 3 *)
  acc : float array;    (* stage 3: the last walk's probability product *)
}

(* Keeps the edges [(u, v)] with [keep u v], in order; true if any
   was dropped. *)
let filter st keep =
  let k = ref 0 in
  for i = 0 to st.m - 1 do
    let u = st.eu.(i) and v = st.ev.(i) in
    if keep u v then begin
      st.eu.(!k) <- u;
      st.ev.(!k) <- v;
      st.ep.(!k) <- st.ep.(i);
      incr k
    end
  done;
  let changed = !k < st.m in
  st.m <- !k;
  changed

(* Stage 1: drop self-loops. *)
let drop_loops st = filter st (fun u v -> u <> v)

(* Stage 2: merge parallel edges. One edge survives per vertex pair, as
   [(min, max, 1 - prod (1 - p))] at the pair's first occurrence, with
   the failure product taken left to right in sequence order. Pairs are
   found by bucketing positions on the min endpoint (counting sort,
   stable) and stamping each max endpoint with the bucket's vertex. *)
let merge_parallels st =
  let n = st.n and m = st.m in
  let start = st.start in
  Array.fill start 0 (n + 1) 0;
  (* Orient every edge (min, max) first: the output is oriented so. *)
  for i = 0 to m - 1 do
    let u = st.eu.(i) and v = st.ev.(i) in
    if u > v then begin
      st.eu.(i) <- v;
      st.ev.(i) <- u
    end;
    let a = st.eu.(i) + 1 in
    start.(a) <- start.(a) + 1
  done;
  for a = 1 to n do
    start.(a) <- start.(a) + start.(a - 1)
  done;
  (* [first] doubles as the placement cursor before the stamping pass. *)
  Array.blit start 0 st.first 0 n;
  for i = 0 to m - 1 do
    let a = st.eu.(i) in
    st.bucket.(st.first.(a)) <- i;
    st.first.(a) <- st.first.(a) + 1
  done;
  Array.fill st.owner 0 n (-1);
  for a = 0 to n - 1 do
    for j = start.(a) to start.(a + 1) - 1 do
      let i = st.bucket.(j) in
      let b = st.ev.(i) in
      if st.owner.(b) = a then st.rep.(i) <- st.first.(b)
      else begin
        st.owner.(b) <- a;
        st.first.(b) <- i;
        st.rep.(i) <- i
      end
    done
  done;
  let changed = ref false in
  for i = 0 to m - 1 do
    let r = st.rep.(i) in
    if r = i then st.fail.(i) <- 1. -. st.ep.(i)
    else begin
      changed := true;
      st.fail.(r) <- st.fail.(r) *. (1. -. st.ep.(i))
    end
  done;
  let k = ref 0 in
  for i = 0 to m - 1 do
    if st.rep.(i) = i then begin
      st.eu.(!k) <- st.eu.(i);
      st.ev.(!k) <- st.ev.(i);
      st.ep.(!k) <- 1. -. st.fail.(i);
      incr k
    end
  done;
  st.m <- !k;
  !changed

(* Reverses the first [len] edges of three parallel arrays in place. *)
let reverse (eu : int array) (ev : int array) (ep : float array) len =
  for i = 0 to (len / 2) - 1 do
    let j = len - 1 - i in
    let u = eu.(i) and v = ev.(i) and p = ep.(i) in
    eu.(i) <- eu.(j);
    ev.(i) <- ev.(j);
    ep.(i) <- ep.(j);
    eu.(j) <- u;
    ev.(j) <- v;
    ep.(j) <- p
  done

let other st e x = if st.eu.(e) = x then st.ev.(e) else st.eu.(e)
let eligible st v = st.deg.(v) = 2 && not st.is_terminal.(v)

(* Walk away from [start] along edge [e0] through eligible vertices until
   a non-eligible one, marking traversed edges dead and interior
   vertices visited. Returns the end vertex, or -1 when the walk closes
   back on [start] (a cycle of eligible vertices), and leaves the
   left-to-right product of the traversed probabilities in [st.acc.(0)].
   At an interior vertex the walk continues along the first live edge of
   [hi; lo]; with none left it ends there (a parallel stub). *)
let walk st start e0 =
  let e = ref e0 and w = ref (other st e0 start) in
  let acc = ref 1.0 and stop = ref (-2) in
  while !stop = -2 do
    let cur = !e and x = !w in
    st.dead.(cur) <- true;
    acc := !acc *. st.ep.(cur);
    if x = start then stop := -1
    else if eligible st x then begin
      st.visited.(x) <- true;
      let h = st.hi.(x) and l = st.lo.(x) in
      if not st.dead.(h) then begin
        e := h;
        w := other st h x
      end
      else if not st.dead.(l) then begin
        e := l;
        w := other st l x
      end
      else stop := x
    end
    else stop := x
  done;
  st.acc.(0) <- !acc;
  !stop

let note_incidence st x i =
  let d = st.deg.(x) in
  if d = 0 then st.lo.(x) <- i else if d = 1 then st.hi.(x) <- i;
  st.deg.(x) <- d + 1

(* Stage 3: contract chains through degree-2 non-terminal vertices.
   Vertices are scanned in increasing id; each unvisited eligible
   vertex [v] walks first along its higher-position edge, then along
   its lower one, and the chain [a - ... - v - ... - b] becomes one
   edge [(a, b, pa * pb)] ([a = b] is an ear: a self-loop removed next
   round; a closed cycle is dropped outright). The output is the
   contracted chains in reverse discovery order, then the surviving
   edges in sequence order. *)
let contract_chains st =
  let n = st.n and m = st.m in
  Array.fill st.deg 0 n 0;
  for i = 0 to m - 1 do
    note_incidence st st.eu.(i) i;
    note_incidence st st.ev.(i) i
  done;
  Array.fill st.visited 0 n false;
  Array.fill st.dead 0 m false;
  (* Chains go to the spare buffer in discovery order, reversed below. *)
  let changed = ref false and x = ref 0 in
  for v = 0 to n - 1 do
    if eligible st v && not st.visited.(v) then begin
      st.visited.(v) <- true;
      changed := true;
      let a = walk st v st.hi.(v) in
      if a >= 0 then begin
        let pa = st.acc.(0) in
        let b = walk st v st.lo.(v) in
        assert (b >= 0) (* the first walk consumed one of v's edges *);
        st.eu2.(!x) <- a;
        st.ev2.(!x) <- b;
        st.ep2.(!x) <- pa *. st.acc.(0);
        incr x
      end
    end
  done;
  reverse st.eu2 st.ev2 st.ep2 !x;
  let k = ref !x in
  for i = 0 to m - 1 do
    if not st.dead.(i) then begin
      st.eu2.(!k) <- st.eu.(i);
      st.ev2.(!k) <- st.ev.(i);
      st.ep2.(!k) <- st.ep.(i);
      incr k
    end
  done;
  let eu = st.eu and ev = st.ev and ep = st.ep in
  st.eu <- st.eu2;
  st.ev <- st.ev2;
  st.ep <- st.ep2;
  st.eu2 <- eu;
  st.ev2 <- ev;
  st.ep2 <- ep;
  st.m <- !k;
  !changed

(* Stage 4: drop edges incident to dangling non-terminals (degree at
   most one, a self-loop counting twice). *)
let drop_dangling st =
  Array.fill st.deg 0 st.n 0;
  for i = 0 to st.m - 1 do
    let u = st.eu.(i) and v = st.ev.(i) in
    st.deg.(u) <- st.deg.(u) + 1;
    st.deg.(v) <- st.deg.(v) + 1
  done;
  let dangling v = (not st.is_terminal.(v)) && st.deg.(v) <= 1 in
  filter st (fun u v -> u = v || not (dangling u || dangling v))

(* One fixpoint round. The stages are applied in order — loops,
   parallels, chains, dangling vertices — each to the previous stage's
   output; rewrites enabled by a later stage fire in the next round.
   Every stage runs whatever the earlier ones found. *)
let round st =
  let c1 = drop_loops st in
  let c2 = merge_parallels st in
  let c3 = contract_chains st in
  let c4 = drop_dangling st in
  c1 || c2 || c3 || c4

let run_arrays ~n ~eu ~ev ~ep ~terminals =
  let m = Array.length eu in
  let is_terminal = Array.make n false in
  List.iter (fun t -> is_terminal.(t) <- true) terminals;
  (* The rounds consume the edges in reverse id order. *)
  reverse eu ev ep m;
  let st =
    {
      n; is_terminal; m; eu; ev; ep;
      eu2 = Array.make m 0; ev2 = Array.make m 0; ep2 = Array.make m 0.;
      bucket = Array.make m 0; rep = Array.make m 0;
      fail = Array.make m 0.; dead = Array.make m false;
      start = Array.make (n + 1) 0; owner = Array.make n 0;
      first = Array.make n 0; deg = Array.make n 0; lo = Array.make n 0;
      hi = Array.make n 0; visited = Array.make n false;
      acc = Array.make 1 0.;
    }
  in
  let rounds = ref 0 in
  while round st do
    incr rounds
  done;
  (* Compact: keep terminals and any vertex still carrying an edge, in
     increasing id; the final sequence is emitted reversed. *)
  let keep = Array.copy is_terminal in
  for i = 0 to st.m - 1 do
    keep.(st.eu.(i)) <- true;
    keep.(st.ev.(i)) <- true
  done;
  let new_of_old = Array.make n (-1) in
  let kept = ref 0 in
  for v = 0 to n - 1 do
    if keep.(v) then begin
      new_of_old.(v) <- !kept;
      incr kept
    end
  done;
  let old_of_new = Array.make !kept 0 in
  Array.iteri (fun old nw -> if nw >= 0 then old_of_new.(nw) <- old) new_of_old;
  let m' = st.m in
  let eu = Array.make m' 0 and ev = Array.make m' 0 and ep = Array.make m' 0. in
  for k = 0 to m' - 1 do
    let i = m' - 1 - k in
    eu.(k) <- new_of_old.(st.eu.(i));
    ev.(k) <- new_of_old.(st.ev.(i));
    ep.(k) <- st.ep.(i)
  done;
  let graph = Ugraph.of_arrays ~n:!kept ~eu ~ev ~ep in
  let terminals = List.map (fun t -> new_of_old.(t)) terminals in
  { graph; terminals; old_of_new; rounds = !rounds }

let run (g : Ugraph.t) ~terminals =
  Ugraph.validate_terminals g terminals;
  run_arrays ~n:g.n ~eu:(Array.copy g.eu) ~ev:(Array.copy g.ev)
    ~ep:(Array.copy g.ep) ~terminals
