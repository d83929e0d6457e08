(* Frontier state machine. See fstate.mli for the model.

   States are SPARSE: only "non-trivial" frontier vertices are stored —
   those whose component either spans at least two frontier vertices or
   carries a terminal. A frontier vertex absent from the state is an
   implicit singleton component with no terminal: every incident edge
   processed so far was non-existent. On percolation-sparse graphs this
   keeps states tiny even when the frontier itself is huge, which is
   what makes layer processing affordable on non-planar inputs.

   A state is one packed int array, its own merge key:

     [| hash; meta; verts (nv); comp_of (nv); -1; tc (nc) |]

   From index 2 on it is [key_exact]'s layout. [meta] is [2 nv + 1]
   when the state merges on terminal flags and [2 nv] when it merges on
   exact counts; [hash] is the FNV-1a hash of the state's merge key
   ([key_flags] or [key_exact]), computed once, when [step] writes the
   state.

   Invariants of a canonical state:
   - [verts] strictly increasing vertex ids;
   - [comp_of.(i)] is the component of [verts.(i)], ids assigned by
     first appearance (so equal partitions are equal arrays);
   - [tc.(c)] terminal count of component [c]; every component is
     non-trivial (size >= 2 or [tc > 0]). *)

type state = int array

(* The layout's offsets: the vertex count, the start of [comp_of], the
   start of [tc], the component count. *)
let[@inline] nverts (st : state) = st.(1) lsr 1
let[@inline] comp_base nv = 2 + nv
let[@inline] tc_base nv = 3 + (2 * nv)
let[@inline] ncomps (st : state) nv = Array.length st - tc_base nv
let[@inline] merges_flags (st : state) = st.(1) land 1 = 1

(* One FNV-1a round. The construction's iteration order depends on the
   hash values, so they must stay those of this fold over the merge
   key. *)
let[@inline] fnv h x = (h lxor (x + 0x9E3779B9)) * 0x01000193 land max_int

(* The hash of the merge key [st.(2 ..)], terminal counts as flags when
   the state merges on flags. *)
let key_hash (st : state) =
  let nv = nverts st in
  let tcb = tc_base nv in
  let h = ref 0x811C9DC5 in
  for i = 2 to tcb - 1 do
    h := fnv !h st.(i)
  done;
  if merges_flags st then
    for i = tcb to Array.length st - 1 do
      h := fnv !h (if st.(i) > 0 then 1 else 0)
    done
  else
    for i = tcb to Array.length st - 1 do
      h := fnv !h st.(i)
    done;
  !h

type ctx = {
  k : int;
  order : int array;
  first_pos : int array;
  last_pos : int array;
  terminal_arr : int array;
  is_terminal : bool array;
  (* Edge endpoints and probabilities laid out in processing order
     (position [i] = edge [order.(i)]): descents stream through these
     flat arrays sequentially (permuted accesses through [order] would
     dominate the per-sample cost otherwise), and [step] and [edge_at]
     read their edge here. A positions-only snapshot
     (Kernel.Csr.positions): nothing reads an adjacency, so none is
     built. *)
  csr : Kernel.Csr.t;
  (* The low bit of every state's [meta]: 1 when states merge on
     terminal flags. *)
  flags : int;
}

(* No vertex, no component: the same key, and so the same hash, under
   either merge. *)
let initial =
  let st = [| 0; 0; -1 |] in
  st.(0) <- key_hash st;
  st

type outcome =
  | Sink1
  | Sink0
  | Live of state

let n_positions ctx = Array.length ctx.order
let edge_at ctx pos =
  let c = ctx.csr in
  { Ugraph.u = c.Kernel.Csr.eu.(pos); v = c.Kernel.Csr.ev.(pos); p = c.Kernel.Csr.ep.(pos) }

let make ?(merge_flags = false) g ~order ~terminals =
  Ugraph.validate_terminals g terminals;
  let k = List.length terminals in
  if k < 2 then invalid_arg "Fstate.make: need at least two terminals";
  List.iter
    (fun t ->
      if Ugraph.degree g t = 0 then
        invalid_arg "Fstate.make: isolated terminal (reliability is trivially zero)")
    terminals;
  let first_pos, last_pos = Graphalgo.Ordering.Frontier.first_last g order in
  let is_terminal = Array.make (Ugraph.n_vertices g) false in
  List.iter (fun t -> is_terminal.(t) <- true) terminals;
  {
    k;
    order = Array.copy order;
    first_pos;
    last_pos;
    terminal_arr = Array.of_list terminals;
    is_terminal;
    csr = Kernel.Csr.positions g ~order;
    flags = Bool.to_int merge_flags;
  }

(* Index of [x] in the sorted prefix [a.(lo .. hi - 1)], or [-1]. A
   top-level function, so a search allocates no closure. *)
let rec bsearch (a : int array) x lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) / 2 in
    let y = a.(mid) in
    if y = x then mid else if y < x then bsearch a x (mid + 1) hi else bsearch a x lo mid

(* Per-domain working buffers of [step] and [heuristic_log2], grown on
   demand: the merged vertex list and its components (room for the two
   insertions of a step), the terminal counts, departure flags and
   canonical renaming per component, and the per-component degree sums
   of the heuristic. A domain runs one call at a time and every call
   rewrites what it reads, so constructions running as pool tasks on
   different domains never share a buffer, and nothing carries over
   from one call to the next. *)
type work = {
  mutable w_verts : int array;
  mutable w_comp : int array;
  mutable w_removed : Bytes.t;
  mutable w_tc : int array;
  mutable w_rename : int array;
  mutable w_tc_out : int array;
  mutable w_deg : int array;
}

let work_key =
  Domain.DLS.new_key (fun () ->
      {
        w_verts = [||];
        w_comp = [||];
        w_removed = Bytes.empty;
        w_tc = [||];
        w_rename = [||];
        w_tc_out = [||];
        w_deg = [||];
      })

(* The calling domain's buffers, with room for [verts] explicit
   vertices and [comps] components. *)
let work ~verts ~comps =
  let w = Domain.DLS.get work_key in
  if Array.length w.w_verts < verts then begin
    let n = (2 * verts) + 16 in
    w.w_verts <- Array.make n 0;
    w.w_comp <- Array.make n 0;
    w.w_removed <- Bytes.make n '\000'
  end;
  if Array.length w.w_tc < comps then begin
    let n = (2 * comps) + 16 in
    w.w_tc <- Array.make n 0;
    w.w_rename <- Array.make n 0;
    w.w_tc_out <- Array.make n 0;
    w.w_deg <- Array.make n 0
  end;
  w

let removed w i = Bytes.get w.w_removed i <> '\000'
let remove w i = Bytes.set w.w_removed i '\001'

(* Departure of endpoint [x] at [pos] from the [len] merged vertices:
   0 when nothing resolves, 1 when a terminal-bearing component is
   stranded (sink 0), 2 when the component leaving holds every terminal
   (sink 1). Only an endpoint can leave at its edge's position. *)
let leave ctx w ~pos ~len x =
  if ctx.last_pos.(x) <> pos then 0
  else
    let ix = bsearch w.w_verts x 0 len in
    (* An implicit singleton leaving carries no terminal: silent. *)
    if ix < 0 || removed w ix then 0
    else begin
      remove w ix;
      let comp = w.w_comp in
      let c = comp.(ix) in
      (* Does c still have an explicit member? *)
      let members = ref 0 and last_member = ref (-1) in
      for i = 0 to len - 1 do
        if (not (removed w i)) && comp.(i) = c then begin
          incr members;
          last_member := i
        end
      done;
      let t = w.w_tc.(c) in
      if !members = 0 then if t = ctx.k then 2 else if t > 0 then 1 else 0
      else begin
        (* Demote the leftover lone non-terminal to implicit. *)
        if !members = 1 && t = 0 then remove w !last_member;
        0
      end
    end

(* The child of [st] when the edge [(u, v)] at [pos] changes it:
   [ins_u]/[ins_v] say which endpoints become explicit, and [joins]
   whether the edge exists between two distinct vertices. *)
let rebuild ctx ~eager ~pos (st : state) ~u ~v ~joins ~ins_u ~ins_v =
  let nv = nverts st in
  let cb = comp_base nv and tcb = tc_base nv in
  let nc = ncomps st nv in
  let w = work ~verts:(nv + 2) ~comps:(nc + 2) in
  let w_verts = w.w_verts and w_comp = w.w_comp and w_tc = w.w_tc in
  for c = 0 to nc - 1 do
    w_tc.(c) <- st.(tcb + c)
  done;
  (* Up to two insertions, [p1 < p2], [-1] for none. *)
  let lo = if u < v then u else v and hi = if u < v then v else u in
  let p1 = if ins_u && ins_v then lo else if ins_u then u else if ins_v then v else -1 in
  let p2 = if ins_u && ins_v then hi else -1 in
  (* Merge old verts with the insertions, both sorted. A new singleton
     is terminal iff it is a terminal vertex (it may have entered
     earlier as an implicit non-terminal only if not a terminal). *)
  let len = ref 0 and n_comp = ref nc and i = ref 0 in
  let pend = ref p1 and pend2 = ref p2 in
  while !i < nv || !pend >= 0 do
    if !pend >= 0 && (!i >= nv || !pend < st.(2 + !i)) then begin
      let p = !pend in
      w_verts.(!len) <- p;
      w_comp.(!len) <- !n_comp;
      w_tc.(!n_comp) <- (if ctx.is_terminal.(p) then 1 else 0);
      incr n_comp;
      pend := !pend2;
      pend2 := -1
    end
    else begin
      w_verts.(!len) <- st.(2 + !i);
      w_comp.(!len) <- st.(cb + !i);
      incr i
    end;
    incr len
  done;
  let len = !len in
  (* Apply an existent edge: merge the endpoint components. *)
  let early_sink1 = ref false in
  if joins then begin
    let cu = w_comp.(bsearch w_verts u 0 len) and cv = w_comp.(bsearch w_verts v 0 len) in
    if cu <> cv then begin
      let keep = if cu < cv then cu else cv and dead = if cu < cv then cv else cu in
      for j = 0 to len - 1 do
        if w_comp.(j) = dead then w_comp.(j) <- keep
      done;
      w_tc.(keep) <- w_tc.(keep) + w_tc.(dead);
      w_tc.(dead) <- 0;
      if eager && w_tc.(keep) = ctx.k then early_sink1 := true
    end
  end;
  if !early_sink1 then Sink1
  else begin
    for j = 0 to len - 1 do
      Bytes.set w.w_removed j '\000'
    done;
    let left_u = leave ctx w ~pos ~len u in
    let left_v = if v <> u then leave ctx w ~pos ~len v else 0 in
    if left_u = 2 || left_v = 2 then Sink1
    else if left_u = 1 || left_v = 1 then Sink0
    else begin
      (* Compact and canonically renumber: components by first
         appearance, so equal partitions are equal arrays. *)
      let rename = w.w_rename and tc_out = w.w_tc_out in
      for c = 0 to !n_comp - 1 do
        rename.(c) <- -1
      done;
      let out_len = ref 0 and n_comps = ref 0 in
      for j = 0 to len - 1 do
        if not (removed w j) then begin
          incr out_len;
          let c = w_comp.(j) in
          if rename.(c) < 0 then begin
            rename.(c) <- !n_comps;
            tc_out.(!n_comps) <- w_tc.(c);
            incr n_comps
          end
        end
      done;
      (* The one allocation: the state in its packed layout. *)
      let nv' = !out_len in
      let cb' = comp_base nv' and tcb' = tc_base nv' in
      let st' = Array.make (tcb' + !n_comps) 0 in
      st'.(1) <- (2 * nv') lor ctx.flags;
      let cursor = ref 0 in
      for j = 0 to len - 1 do
        if not (removed w j) then begin
          st'.(2 + !cursor) <- w_verts.(j);
          st'.(cb' + !cursor) <- rename.(w_comp.(j));
          incr cursor
        end
      done;
      st'.(tcb' - 1) <- -1;
      for c = 0 to !n_comps - 1 do
        st'.(tcb' + c) <- tc_out.(c)
      done;
      st'.(0) <- key_hash st';
      Live st'
    end
  end

let step ctx ~eager ~pos (st : state) ~exists =
  let u = ctx.csr.Kernel.Csr.eu.(pos) and v = ctx.csr.Kernel.Csr.ev.(pos) in
  let nv = nverts st in
  let cb = comp_base nv in
  let iu = bsearch st u 2 cb in
  let iv = if v = u then iu else bsearch st v 2 cb in
  (* Materialisation set: a vertex joins the explicit representation if
     it is an entering terminal, or an endpoint of an existent non-loop
     edge (its component will have size >= 2). *)
  let joins = exists && u <> v in
  let ins_u = iu < 0 && (joins || (ctx.first_pos.(u) = pos && ctx.is_terminal.(u))) in
  let ins_v =
    v <> u && iv < 0 && (joins || (ctx.first_pos.(v) = pos && ctx.is_terminal.(v)))
  in
  (* An edge that makes no vertex explicit, joins no two components and
     takes no explicit vertex off the frontier leaves the state as it
     is, canonical numbering included: the child is the state itself. *)
  if
    (not ins_u) && (not ins_v)
    && ((not joins) || st.(nv + iu) = st.(nv + iv))
    && (iu < 0 || ctx.last_pos.(u) <> pos)
    && (iv < 0 || ctx.last_pos.(v) <> pos)
  then Live st
  else rebuild ctx ~eager ~pos st ~u ~v ~joins ~ins_u ~ins_v

let hash (st : state) = st.(0)
let key_length (st : state) = Array.length st - 2
let key_exact (st : state) = Array.sub st 2 (key_length st)

let key_flags (st : state) =
  let key = key_exact st in
  for i = tc_base (nverts st) - 2 to Array.length key - 1 do
    key.(i) <- (if key.(i) > 0 then 1 else 0)
  done;
  key

let component_count st = ncomps st (nverts st)

let component_terminals st =
  let nv = nverts st in
  Array.sub st (tc_base nv) (ncomps st nv)

let heuristic_log2 ctx ~rem st ~log2_pn =
  let k = float_of_int ctx.k in
  let nv = nverts st in
  let cb = comp_base nv and tcb = tc_base nv in
  let nc = ncomps st nv in
  (* [rem] is the caller-maintained remaining-degree table;
     per-component d sums come from it in O(state size). *)
  let d = (work ~verts:0 ~comps:nc).w_deg in
  for c = 0 to nc - 1 do
    d.(c) <- 0
  done;
  for i = 0 to nv - 1 do
    let c = st.(cb + i) in
    d.(c) <- d.(c) + rem.(st.(2 + i))
  done;
  (* A comparison rather than [Float.max], a call into another module
     that would box its arguments; both candidates are positive and
     finite, so the two agree. *)
  let best = ref neg_infinity in
  for c = 0 to nc - 1 do
    let t = st.(tcb + c) in
    if t > 0 then begin
      let dc = if d.(c) > 1 then d.(c) else 1 in
      let by_t = float_of_int t /. k and by_d = 1. /. float_of_int dc in
      let f = if by_d > by_t then by_d else by_t in
      if f > !best then best := f
    end
  done;
  let factor =
    if !best > neg_infinity then !best
    else 1. /. (2. *. k *. float_of_int (1 + nv))
  in
  log2_pn +. Float.log2 factor

(* Complete the possible graph from a node: draw the remaining
   positions through the flat kernel (present-position buffer, packed
   mask words when [detail]) and check connectivity with the early-exit
   union-find. The node's explicit components are anchored to virtual
   elements [n + comp_id] (vertices are [0 .. n-1]); implicit
   singletons need no anchor. The terminals to connect are the flagged
   components plus terminals that have not entered the frontier yet.
   Anchors are unioned before the terminal marks — safe, because an
   anchor union only ever touches roots with [tcnt = 0], so [live]
   stays untouched; the marks must precede [union_drawn], which
   early-exits on the live count. *)
let descend_kernel ctx ~scratch ~detail ~pos st rng =
  let n = ctx.csr.Kernel.Csr.n in
  let nv = nverts st in
  let cb = comp_base nv and tcb = tc_base nv in
  let nc = ncomps st nv in
  Kernel.draw_sub scratch ctx.csr ~pos ~detail rng;
  Kernel.round_begin scratch ~elems:(n + nc);
  for i = 0 to nv - 1 do
    Kernel.union scratch st.(2 + i) (n + st.(cb + i))
  done;
  for c = 0 to nc - 1 do
    if st.(tcb + c) > 0 then Kernel.mark scratch (n + c)
  done;
  let terminals = ctx.terminal_arr in
  for i = 0 to Array.length terminals - 1 do
    if ctx.first_pos.(terminals.(i)) >= pos then Kernel.mark scratch terminals.(i)
  done;
  Kernel.union_drawn scratch ctx.csr

let descent_log_q ctx ~scratch = Kernel.drawn_log_q scratch ctx.csr

(* Equality of merge keys, with no closure or ref per call: the hashes
   first (unequal hashes, unequal keys), then the length and vertex
   count, the vertices, components and separator, and the terminal
   counts, as flags when the states merge on flags. Every state with a
   component was written by [step] under its layer's context, so the
   states of one layer that have terminal counts to compare carry the
   same merge bit; [initial], which a layer can inherit unchanged, has
   none. *)
let rec equal_from (a : state) (b : state) i n =
  i >= n || (a.(i) = b.(i) && equal_from a b (i + 1) n)

let rec flags_equal_from (a : state) (b : state) i n =
  i >= n || ((a.(i) > 0) = (b.(i) > 0) && flags_equal_from a b (i + 1) n)

let equal (a : state) (b : state) =
  let n = Array.length a in
  a.(0) = b.(0)
  && n = Array.length b
  && nverts a = nverts b
  &&
  let tcb = tc_base (nverts a) in
  equal_from a b 2 tcb
  && if merges_flags a then flags_equal_from a b tcb n else equal_from a b tcb n

module Key_table = Hashtbl.Make (struct
  type t = state

  let equal = equal

  (* FNV-1a over every element of the merge key, read from the slot
     [step] filled; Hashtbl.hash would only inspect a bounded prefix,
     which collides badly on wide frontiers. Unlike the completion
     hashes of the descents (Hash64) this one only buckets — keys are
     compared by [equal] on collision — so FNV's weak diffusion costs
     at most table balance, never correctness. *)
  let hash = hash
end)
