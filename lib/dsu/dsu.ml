type t = {
  parent : int array;
  rank : int array;
  size : int array;
  mutable sets : int;
}

let create n =
  if n < 0 then invalid_arg "Dsu.create: negative size";
  { parent = Array.init n (fun i -> i);
    rank = Array.make n 0;
    size = Array.make n 1;
    sets = n }

let size t = Array.length t.parent

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

let find t x = find_root t.parent x

let union t a b =
  let ra = find t a and rb = find t b in
  if ra = rb then false
  else begin
    let ra, rb =
      if t.rank.(ra) < t.rank.(rb) then (rb, ra) else (ra, rb)
    in
    t.parent.(rb) <- ra;
    t.size.(ra) <- t.size.(ra) + t.size.(rb);
    if t.rank.(ra) = t.rank.(rb) then t.rank.(ra) <- t.rank.(ra) + 1;
    t.sets <- t.sets - 1;
    true
  end

let connected t a b = find t a = find t b
let component_size t x = t.size.(find t x)
let count_sets t = t.sets

let reset t =
  for i = 0 to Array.length t.parent - 1 do
    t.parent.(i) <- i;
    t.rank.(i) <- 0;
    t.size.(i) <- 1
  done;
  t.sets <- Array.length t.parent

let all_connected t vs =
  match vs with
  | [] -> true
  | v :: rest ->
    let root = find t v in
    List.for_all (fun u -> find t u = root) rest
