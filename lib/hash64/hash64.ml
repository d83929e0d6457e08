(* splitmix64 finalizer: xor-shift-multiply twice, then a final shift.
   Bijective on 64-bit words, full avalanche (every input bit flips each
   output bit with probability ~1/2). Inlined, so the digest loops below
   keep their int64 state unboxed instead of boxing one per word. *)
let[@inline] mix64 (z : int64) : int64 =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* Payload bits per native-int word: OCaml ints are 63-bit here, and we
   keep digests non-negative, so pack 62 mask bits per word. *)
let word_bits = 62

(* Arbitrary non-zero 64-bit seed so the empty input does not hash to
   mix64(length) alone. *)
let seed = 0x27220A958FE4C9E1L

module Stream = struct
  type t = {
    mutable h : int64;    (* chained state *)
    mutable acc : int;    (* partial word of packed bits *)
    mutable nbits : int;  (* bits currently in [acc] *)
    mutable total : int;  (* bits absorbed overall *)
  }

  let create () = { h = seed; acc = 0; nbits = 0; total = 0 }

  let flush t =
    t.h <- mix64 (Int64.logxor t.h (Int64.of_int t.acc));
    t.acc <- 0;
    t.nbits <- 0

  let add_bit t b =
    if b then t.acc <- t.acc lor (1 lsl t.nbits);
    t.nbits <- t.nbits + 1;
    t.total <- t.total + 1;
    if t.nbits = word_bits then flush t

  let finish t =
    if t.nbits > 0 then flush t;
    (* Length fold: a mask of [m] bits and one of [m'] bits sharing a
       packed prefix must not share a digest. *)
    Int64.to_int (mix64 (Int64.logxor t.h (Int64.of_int t.total))) land max_int
end

let mask present m =
  let t = Stream.create () in
  for eid = 0 to m - 1 do
    Stream.add_bit t present.(eid)
  done;
  Stream.finish t

(* Digest of [bits] mask bits already packed 62-per-word LSB-first.
   Digest-identical to [mask]/[Stream] over the same bit sequence: the
   stream flushes exactly once per full 62-bit word plus once for a
   trailing partial word — i.e. once per packed word — and then folds
   the bit count, which is what the loop below replays. *)
let mask_words_sub words ~off ~bits =
  let nw = (bits + word_bits - 1) / word_bits in
  let h = ref seed in
  for i = 0 to nw - 1 do
    h := mix64 (Int64.logxor !h (Int64.of_int words.(off + i)))
  done;
  Int64.to_int (mix64 (Int64.logxor !h (Int64.of_int bits))) land max_int

let mask_words words ~bits = mask_words_sub words ~off:0 ~bits
