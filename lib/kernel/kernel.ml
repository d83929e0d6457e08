(* Flat sampling kernels. See kernel.mli for the contract; DESIGN.md
   section 10 documents the layout, the draw-order contract, and the
   early-exit invariant. *)

module Csr = struct
  type t = {
    n : int;
    m : int;
    eu : int array;
    ev : int array;
    ep : float array;
    off : int array;
    adj_pos : int array;
    adj_other : int array;
  }

  (* The natural-order snapshot is the graph's own struct of arrays:
     Ugraph builds its adjacency in exactly this layout, so the view
     shares every array and copies nothing. *)
  let of_graph (g : Ugraph.t) =
    { n = g.Ugraph.n; m = g.Ugraph.m; eu = g.Ugraph.eu; ev = g.Ugraph.ev;
      ep = g.Ugraph.ep; off = g.Ugraph.off; adj_pos = g.Ugraph.adj_eid;
      adj_other = g.Ugraph.adj_other }

  let positions (g : Ugraph.t) ~order =
    let m = Array.length order in
    let eu = Array.make m 0 and ev = Array.make m 0 and ep = Array.make m 0. in
    for pos = 0 to m - 1 do
      let eid = order.(pos) in
      eu.(pos) <- g.Ugraph.eu.(eid);
      ev.(pos) <- g.Ugraph.ev.(eid);
      ep.(pos) <- g.Ugraph.ep.(eid)
    done;
    { n = g.Ugraph.n; m; eu; ev; ep; off = [||]; adj_pos = [||]; adj_other = [||] }

  (* A positions-only snapshot has an empty [off], never [n + 1]
     entries. *)
  let has_adjacency t = Array.length t.off = t.n + 1

  (* The processing-order snapshot is the natural-order view of the
     graph whose edge ids are the positions. *)
  let of_order g ~order =
    let c = positions g ~order in
    of_graph (Ugraph.of_arrays ~n:c.n ~eu:c.eu ~ev:c.ev ~ep:c.ep)

  let of_arrays ~n ~eu ~ev ~ep =
    of_graph
      (Ugraph.of_arrays ~n ~eu:(Array.copy eu) ~ev:(Array.copy ev)
         ~ep:(Array.copy ep))

  let n_vertices t = t.n
  let n_edges t = t.m

  let iter_incident t v f =
    if not (has_adjacency t) then
      invalid_arg "Kernel.Csr.iter_incident: snapshot has no adjacency";
    for i = t.off.(v) to t.off.(v + 1) - 1 do
      f ~pos:t.adj_pos.(i) ~other:t.adj_other.(i)
    done
end

(* Bit-matrix transposition between the two packed layouts the kernels
   use: edge-major (one word per edge, bit = world — the bit-sliced
   draw slab) and world-major (one row of packed words per world — the
   layout Hash64 digests). Rows and columns are both packed LSB-first,
   Hash64.word_bits per word, rows padded to whole words. *)
module Bitslab = struct
  let word_bits = Hash64.word_bits
  let words_per_row ~cols = (cols + word_bits - 1) / word_bits

  let transpose ~src ~rows ~cols ~dst =
    let wpr_s = words_per_row ~cols and wpr_d = words_per_row ~cols:rows in
    Array.fill dst 0 (cols * wpr_d) 0;
    for r = 0 to rows - 1 do
      let base = r * wpr_s in
      for c = 0 to cols - 1 do
        if (src.(base + (c / word_bits)) lsr (c mod word_bits)) land 1 = 1
        then begin
          let d = (c * wpr_d) + (r / word_bits) in
          dst.(d) <- dst.(d) lor (1 lsl (r mod word_bits))
        end
      done
    done
end

type t = {
  (* Draw buffers. [present] holds the drawn-present positions of the
     last flat draw; [words] the packed mask bits of the last detail
     draw, [mask_bits] of them from position [mask_pos]. [mask_pos] is
     -1 when the last flat draw packed no mask. *)
  mutable present : int array;
  mutable n_present : int;
  mutable words : int array;
  mutable mask_bits : int;
  mutable mask_pos : int;
  (* Bit-sliced draw buffers. [slab.(pos)] holds the last
     [draw_bitsliced]'s outcome bits for edge [pos], one bit-lane per
     world; [tmask] is its world-major transpose ([transpose_worlds]),
     [tmask_wpr] packed words per world row. *)
  mutable slab : int array;
  mutable slab_edges : int;
  mutable tmask : int array;
  mutable tmask_wpr : int;
  (* Whether [tmask] transposes the current slab: every slab write
     clears it, [transpose_worlds] sets it. *)
  mutable transposed : bool;
  (* The snapshots the last draws ran against. Draw buffers hold
     *positions*, which are only meaningful against that snapshot:
     connectivity entry points reject any other Csr instead of
     silently unioning garbage endpoints. The present buffer and the
     slab are written by different draws, so each has its own. *)
  mutable present_for : Csr.t;
  mutable slab_for : Csr.t;
  (* Generation-stamped union-find: an element whose [stamp] is not the
     current [gen] is an untouched singleton. [round_begin] bumps [gen]
     instead of resetting the arrays, so starting a round costs O(1)
     however large the last graph was. [tcnt] counts marked (required)
     elements per root; [live] counts roots with [tcnt > 0]. *)
  mutable parent : int array;
  mutable rank : int array;
  mutable tcnt : int array;
  mutable stamp : int array;
  mutable gen : int;
  mutable live : int;
  (* Bit-parallel reachability buffers of [connected_lanes], one slot
     per vertex: [reach.(v)] holds the active lanes in which [v] is
     reachable from the first terminal, [queue] is the circular FIFO
     worklist (a vertex is queued at most once at a time, so n slots
     suffice) and [flags.[v]] carries [queued] and [terminal]. *)
  mutable reach : int array;
  mutable queue : int array;
  mutable flags : Bytes.t;
  (* Work done by the last connectivity entry point — edge-union
     attempts, or adjacency entries scanned by [connected_lanes] — the
     early-exit depth the observability layer histograms. *)
  mutable union_steps : int;
}

(* A Csr no caller can hold: fresh scratch rejects connectivity calls
   until its first draw. Compared by physical identity only. *)
let no_draw_yet : Csr.t =
  { Csr.n = 0; m = 0; eu = [||]; ev = [||]; ep = [||]; off = [| 0 |];
    adj_pos = [||]; adj_other = [||] }

let create () =
  {
    present = [||];
    n_present = 0;
    words = [||];
    mask_bits = 0;
    mask_pos = -1;
    slab = [||];
    slab_edges = 0;
    tmask = [||];
    tmask_wpr = 0;
    transposed = false;
    present_for = no_draw_yet;
    slab_for = no_draw_yet;
    parent = [||];
    rank = [||];
    tcnt = [||];
    stamp = [||];
    gen = 0;
    live = 0;
    reach = [||];
    queue = [||];
    flags = Bytes.empty;
    union_steps = 0;
  }

let scratch_key : t Domain.DLS.key = Domain.DLS.new_key create
let scratch () = Domain.DLS.get scratch_key

let ensure_edges t m =
  if Array.length t.present < m then t.present <- Array.make (max m 1) 0

let ensure_words t bits =
  let nw = (bits + Hash64.word_bits - 1) / Hash64.word_bits in
  if Array.length t.words < nw then t.words <- Array.make (max nw 1) 0

(* ---- draws ---- *)

(* One loop draws every flat world: positions [pos .. m - 1], one
   [Prng.bernoulli_at] each in position order. Each position is appended
   to [present] and, in a [detail] draw, its outcome packed into the
   mask words, bit [i] for position [pos + i]. Neither write branches on
   the outcome: every position is written and only a present one is
   kept, and the outcome bit is or-ed in as 0 or 1. A branch on the draw
   mispredicts as often as the probabilities are uncertain, which cost
   half the loop's time on a road graph (p around 0.3). *)
let draw_sub t (c : Csr.t) ~pos ~detail rng =
  let m = c.Csr.m in
  let remaining = m - pos in
  ensure_edges t remaining;
  let ep = c.Csr.ep and present = t.present in
  let np = ref 0 in
  if detail then begin
    ensure_words t remaining;
    let words = t.words and word_bits = Hash64.word_bits in
    let acc = ref 0 and nbits = ref 0 and w = ref 0 in
    for p = pos to m - 1 do
      let b = Bool.to_int (Prng.bernoulli_at rng ep p) in
      present.(!np) <- p;
      np := !np + b;
      acc := !acc lor (b lsl !nbits);
      incr nbits;
      if !nbits = word_bits then begin
        words.(!w) <- !acc;
        incr w;
        acc := 0;
        nbits := 0
      end
    done;
    if !nbits > 0 then words.(!w) <- !acc;
    t.mask_bits <- remaining;
    t.mask_pos <- pos
  end
  else begin
    for p = pos to m - 1 do
      present.(!np) <- p;
      np := !np + Bool.to_int (Prng.bernoulli_at rng ep p)
    done;
    t.mask_pos <- -1
  end;
  t.n_present <- !np;
  t.present_for <- c

let draw t c rng = draw_sub t c ~pos:0 ~detail:false rng
let draw_prob t c rng = draw_sub t c ~pos:0 ~detail:true rng

(* [Prng.bernoulli] draws nothing at [p >= 1] or [p <= 0]; the same
   two tests count the positions it draws for. *)
let draw_outputs (c : Csr.t) =
  Array.fold_left
    (fun n p -> if p >= 1. || p <= 0. then n else n + 1)
    0 c.Csr.ep

let n_present t = t.n_present
let mask_hash t = Hash64.mask_words t.words ~bits:t.mask_bits

(* ---- bit-sliced draws ---- *)

let ensure_slab t m =
  if Array.length t.slab < m then t.slab <- Array.make (max m 1) 0

let draw_bitsliced t (c : Csr.t) rng =
  let m = c.Csr.m in
  ensure_slab t m;
  let ep = c.Csr.ep and slab = t.slab in
  for pos = 0 to m - 1 do
    slab.(pos) <- Prng.Bitbatch.draw_at rng ep pos
  done;
  t.slab_edges <- m;
  t.slab_for <- c;
  t.transposed <- false

let slab_word t pos =
  if pos < 0 || pos >= t.slab_edges then invalid_arg "Kernel.slab_word";
  t.slab.(pos)

let set_slab_word t pos w =
  if pos < 0 || pos >= t.slab_edges then invalid_arg "Kernel.set_slab_word";
  t.slab.(pos) <- w land Prng.Bitbatch.all;
  t.transposed <- false

let transpose_worlds t =
  let m = t.slab_edges in
  let wpr = Bitslab.words_per_row ~cols:m in
  let need = Prng.Bitbatch.lanes * wpr in
  if need > 0 && Array.length t.tmask < need then t.tmask <- Array.make need 0;
  Bitslab.transpose ~src:t.slab ~rows:m ~cols:Prng.Bitbatch.lanes ~dst:t.tmask;
  t.tmask_wpr <- wpr;
  t.transposed <- true

let world_hash t ~lane =
  if lane < 0 || lane >= Prng.Bitbatch.lanes || not t.transposed then
    invalid_arg "Kernel.world_hash";
  Hash64.mask_words_sub t.tmask ~off:(lane * t.tmask_wpr) ~bits:t.slab_edges

(* ---- early-exit connectivity ---- *)

let ensure_elems t size =
  if Array.length t.parent < size then begin
    t.parent <- Array.make size 0;
    t.rank <- Array.make size 0;
    t.tcnt <- Array.make size 0;
    (* Fresh stamps are 0, which never equals a live generation
       (round_begin makes gen >= 1): everything starts stale. *)
    t.stamp <- Array.make size 0
  end

let round_begin t ~elems =
  ensure_elems t elems;
  if t.gen = max_int then begin
    (* Unreachable in practice; keep the stamp invariant anyway. *)
    Array.fill t.stamp 0 (Array.length t.stamp) 0;
    t.gen <- 0
  end;
  t.gen <- t.gen + 1;
  t.live <- 0

(* Lazily re-initialise an element on first touch this round. Interior
   nodes of a parent chain were all touched when they were unioned, so
   [find] only needs the one check at its entry point. *)
let touch t x =
  if t.stamp.(x) <> t.gen then begin
    t.stamp.(x) <- t.gen;
    t.parent.(x) <- x;
    t.rank.(x) <- 0;
    t.tcnt.(x) <- 0
  end

(* Path halving: every visited node points to its grandparent. A
   top-level function of the parent array, so a [find] allocates no
   closure. *)
let rec find_root parent x =
  let p = parent.(x) in
  if p = x then x
  else begin
    let gp = parent.(p) in
    parent.(x) <- gp;
    find_root parent gp
  end

let find t x =
  touch t x;
  find_root t.parent x

let mark t x =
  let r = find t x in
  if t.tcnt.(r) = 0 then t.live <- t.live + 1;
  t.tcnt.(r) <- t.tcnt.(r) + 1

let union t a b =
  let ra = find t a and rb = find t b in
  if ra <> rb then begin
    let ra, rb = if t.rank.(ra) < t.rank.(rb) then (rb, ra) else (ra, rb) in
    t.parent.(rb) <- ra;
    if t.tcnt.(rb) > 0 then begin
      if t.tcnt.(ra) > 0 then t.live <- t.live - 1;
      t.tcnt.(ra) <- t.tcnt.(ra) + t.tcnt.(rb);
      t.tcnt.(rb) <- 0
    end;
    if t.rank.(ra) = t.rank.(rb) then t.rank.(ra) <- t.rank.(ra) + 1
  end

let connected t = t.live <= 1

(* Positions in the draw buffers are indices into the Csr they were
   drawn against ([present_for] or [slab_for]); a different Csr
   (notably a different-sized graph reusing the same domain's scratch)
   would read them as unrelated endpoints and return a silently wrong
   verdict. One physical-equality test per round. *)
let check_drawn (drawn_for : Csr.t) (c : Csr.t) =
  if drawn_for != c then
    invalid_arg "Kernel: no draw against this Csr in scratch (draw first)"

let mark_terminals t terminals =
  for i = 0 to Array.length terminals - 1 do
    mark t terminals.(i)
  done

let union_drawn t (c : Csr.t) =
  check_drawn t.present_for c;
  let eu = c.Csr.eu and ev = c.Csr.ev and present = t.present in
  let np = t.n_present in
  let i = ref 0 in
  (* Early exit: [live] is monotone non-increasing under union, so
     stopping at [live <= 1] yields the same verdict as unioning every
     drawn edge. *)
  while t.live > 1 && !i < np do
    let pos = present.(!i) in
    union t eu.(pos) ev.(pos);
    incr i
  done;
  t.union_steps <- t.union_steps + !i;
  t.live <= 1

let union_steps t = t.union_steps

let iter_present t (c : Csr.t) f =
  check_drawn t.present_for c;
  for i = 0 to t.n_present - 1 do
    f t.present.(i)
  done

(* The draws do no probability arithmetic: an estimator that weights a
   world asks for its probability only once it knows it will read it.
   Both readers read the packed mask, so they need a detail draw. *)
let check_mask t (c : Csr.t) ~from_zero what =
  check_drawn t.present_for c;
  if t.mask_pos < 0 || (from_zero && t.mask_pos > 0) then
    invalid_arg
      (Printf.sprintf "Kernel.%s: the last draw packed no mask%s" what
         (if from_zero then " from position 0" else ""))

(* [Xprob.world_prob] asks for each position once, in increasing order,
   so a bit cursor over the mask words answers it without a division. *)
let drawn_prob t (c : Csr.t) =
  check_mask t c ~from_zero:true "drawn_prob";
  let words = t.words and last_bit = Hash64.word_bits - 1 in
  let w = ref 0 and bit = ref 0 in
  Xprob.world_prob c.Csr.ep ~n:c.Csr.m ~present:(fun _ ->
      let present = (words.(!w) lsr !bit) land 1 = 1 in
      if !bit = last_bit then begin
        bit := 0;
        incr w
      end
      else incr bit;
      present)

let drawn_log_q t (c : Csr.t) =
  check_mask t c ~from_zero:false "drawn_log_q";
  let ep = c.Csr.ep and words = t.words and word_bits = Hash64.word_bits in
  let logq = ref 0. in
  let pos = ref t.mask_pos and w = ref 0 in
  let m = t.mask_pos + t.mask_bits in
  while !pos < m do
    let word = words.(!w) and base = !pos in
    for p = base to min m (base + word_bits) - 1 do
      let pe = ep.(p) in
      if (word lsr (p - base)) land 1 = 1 then begin
        if pe < 1. then logq := !logq +. Float.log pe
      end
      else logq := !logq +. Float.log1p (-.pe)
    done;
    pos := base + word_bits;
    incr w
  done;
  !logq

let connected_terminals t (c : Csr.t) terminals =
  round_begin t ~elems:c.Csr.n;
  t.union_steps <- 0;
  mark_terminals t terminals;
  union_drawn t c

(* ---- bit-sliced connectivity ---- *)

let ensure_vertices t n =
  if Array.length t.reach < n then begin
    t.reach <- Array.make n 0;
    t.queue <- Array.make n 0;
    t.flags <- Bytes.make n '\000'
  end

(* [flags] bits. *)
let queued = 1
let terminal = 2
let flag flags v = Char.code (Bytes.get flags v)
let set_flag flags v f = Bytes.set flags v (Char.unsafe_chr f)

(* The lanes in which every terminal is reachable from the first. *)
let terminals_meet reach terminals =
  let w = ref reach.(terminals.(0)) in
  for i = 1 to Array.length terminals - 1 do
    w := !w land reach.(terminals.(i))
  done;
  !w

(* One bit-parallel search answers every lane: [reach] words only grow,
   and a vertex is re-queued whenever its word grows, so the queue
   drains at the fixpoint where [reach.(v)] is exactly the set of
   active lanes whose world joins [v] to the first terminal. The meet
   over the terminals can only grow towards [active], so the search
   stops as soon as it gets there. *)
let connected_lanes t (c : Csr.t) terminals ~active =
  check_drawn t.slab_for c;
  t.union_steps <- 0;
  if not (Csr.has_adjacency c) then
    invalid_arg "Kernel.connected_lanes: snapshot has no adjacency";
  let active = active land Prng.Bitbatch.all in
  let k = Array.length terminals in
  if active = 0 || k = 0 then active
  else begin
    let n = c.Csr.n in
    ensure_vertices t n;
    let reach = t.reach and queue = t.queue and flags = t.flags in
    Array.fill reach 0 n 0;
    Bytes.fill flags 0 n '\000';
    for i = 0 to k - 1 do
      let v = terminals.(i) in
      if v < 0 || v >= n then invalid_arg "Kernel.connected_lanes";
      set_flag flags v terminal
    done;
    let src = terminals.(0) in
    reach.(src) <- active;
    set_flag flags src (terminal lor queued);
    queue.(0) <- src;
    let off = c.Csr.off and adj_pos = c.Csr.adj_pos
    and adj_other = c.Csr.adj_other and slab = t.slab in
    let verdict = ref (terminals_meet reach terminals) in
    let head = ref 0 and len = ref 1 in
    let steps = ref 0 in
    while !len > 0 && !verdict <> active do
      let v = queue.(!head) in
      head := if !head = n - 1 then 0 else !head + 1;
      decr len;
      set_flag flags v (flag flags v land terminal);
      let rv = reach.(v) in
      let lo = off.(v) in
      let hi = ref off.(v + 1) and i = ref lo in
      while !i < !hi do
        let w = adj_other.(!i) in
        let rw = reach.(w) in
        let grown = rw lor (rv land slab.(adj_pos.(!i))) in
        incr i;
        if grown <> rw then begin
          reach.(w) <- grown;
          let fw = flag flags w in
          if fw land queued = 0 then begin
            set_flag flags w (fw lor queued);
            let slot = !head + !len in
            queue.(if slot >= n then slot - n else slot) <- w;
            incr len
          end;
          if fw land terminal <> 0 then begin
            verdict := terminals_meet reach terminals;
            if !verdict = active then hi := !i
          end
        end
      done;
      steps := !steps + (!i - lo)
    done;
    t.union_steps <- !steps;
    !verdict
  end

let world_prob t (c : Csr.t) ~lane =
  check_drawn t.slab_for c;
  if lane < 0 || lane >= Prng.Bitbatch.lanes then invalid_arg "Kernel.world_prob";
  let slab = t.slab in
  Xprob.world_prob c.Csr.ep ~n:t.slab_edges ~present:(fun pos ->
      (slab.(pos) lsr lane) land 1 = 1)
