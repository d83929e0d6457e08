(* Runs with NETREL_FORCE_DOMAINS=2 (and OCAMLRUNPARAM=b) from the
   dune runtest alias: every parallel entry point — including jobs = 1
   call sites that would otherwise take the sequential fast path — is
   redirected onto a 2-domain pool. By the deterministic-reduction
   contract this must not change any result, so the same jobs-
   equivalence checks as test_par.ml must hold verbatim, and the
   samplers must report the forced domain count. *)

module S = Netrel.S2bdd
module R = Netrel.Reliability

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("FAIL: " ^ s); exit 1) fmt

let graph ~n es =
  Ugraph.create ~n (List.map (fun (u, v, p) -> ({ u; v; p } : Ugraph.edge)) es)

let fig1 =
  graph ~n:5
    [ (0, 1, 0.7); (0, 2, 0.7); (1, 3, 0.7); (2, 3, 0.7); (1, 4, 0.7); (3, 4, 0.7) ]

let two_triangles =
  graph ~n:6
    [ (0, 1, 0.6); (1, 2, 0.6); (2, 0, 0.6); (2, 3, 0.6); (3, 4, 0.6);
      (4, 5, 0.6); (5, 3, 0.6) ]

(* Two 10 x 10 grids at p = 0.5 joined by a bridge from the first
   grid's last corner to the second's first: the extension leaves one
   subproblem per grid, and at w = 64 each construction saturates its
   layers for long enough that the two pool tasks overlap, each
   stepping states in its own domain's working buffers. (Two 6 x 6
   grids at w = 8 finish too soon to overlap: one buffer shared by
   both domains went unnoticed there, and fails here.) *)
let two_grids =
  let side = 10 in
  let grid base =
    List.concat
      (List.init side (fun r ->
           List.concat
             (List.init side (fun c ->
                  let v = base + (r * side) + c in
                  (if c + 1 < side then [ (v, v + 1, 0.5) ] else [])
                  @ if r + 1 < side then [ (v, v + side, 0.5) ] else []))))
  in
  let cells = side * side in
  graph ~n:(2 * cells) (grid 0 @ grid cells @ [ (cells - 1, cells, 0.5) ])

let () =
  (match Par.forced_domains () with
  | Some 2 -> ()
  | Some n -> fail "expected NETREL_FORCE_DOMAINS=2, got %d" n
  | None -> fail "NETREL_FORCE_DOMAINS not set; run via the dune rule");
  (* The override must engage even at the jobs = 1 default ... *)
  let e1 = Mcsampling.monte_carlo ~seed:5 fig1 ~terminals:[ 0; 4 ] ~samples:10_000 in
  if e1.Mcsampling.jobs_used <> 2 then
    fail "jobs_used = %d under forcing, expected 2" e1.Mcsampling.jobs_used;
  (* ... without changing any result: jobs 1/2/8 all collapse onto the
     forced pool and must agree bit-for-bit with each other. *)
  let runs f = List.map f [ 1; 2; 8 ] in
  let check_all_equal what = function
    | [] -> ()
    | x :: rest -> if not (List.for_all (( = ) x) rest) then fail "%s diverged" what
  in
  check_all_equal "MC (value, hits)"
    (runs (fun jobs ->
         let e =
           Mcsampling.monte_carlo ~seed:5 ~jobs fig1 ~terminals:[ 0; 4 ]
             ~samples:10_000
         in
         (e.Mcsampling.value, e.Mcsampling.hits, e.Mcsampling.chunk_samples)));
  check_all_equal "HT (value, distinct)"
    (runs (fun jobs ->
         let e =
           Mcsampling.horvitz_thompson ~seed:5 ~jobs fig1 ~terminals:[ 0; 4 ]
             ~samples:10_000
         in
         (e.Mcsampling.value, e.Mcsampling.distinct, e.Mcsampling.chunk_samples)));
  (* The bit-sliced kernel shares the chunked reduction, so the same
     invariance must hold on its own stream (never compared cross-mode). *)
  check_all_equal "bitsliced MC (value, hits)"
    (runs (fun jobs ->
         let e =
           Mcsampling.monte_carlo ~seed:5 ~jobs ~kernel:Mcsampling.Bitsliced
             fig1 ~terminals:[ 0; 4 ] ~samples:10_000
         in
         (e.Mcsampling.value, e.Mcsampling.hits, e.Mcsampling.chunk_samples)));
  check_all_equal "bitsliced HT (value, distinct)"
    (runs (fun jobs ->
         let e =
           Mcsampling.horvitz_thompson ~seed:5 ~jobs
             ~kernel:Mcsampling.Bitsliced fig1 ~terminals:[ 0; 4 ]
             ~samples:10_000
         in
         (e.Mcsampling.value, e.Mcsampling.distinct, e.Mcsampling.chunk_samples)));
  (* Full pipeline on a bridge-decomposable graph: subproblems and
     descents both land on the forced pool (width 2 forces deletion). *)
  let config = { S.default_config with S.samples = 500; S.width = 2 } in
  check_all_equal "Reliability.estimate report"
    (runs (fun jobs -> R.estimate ~config ~jobs two_triangles ~terminals:[ 0; 4 ]));
  check_all_equal "Reliability.estimate report (two grids, concurrent constructions)"
    (runs (fun jobs ->
         R.estimate
           ~config:{ S.default_config with S.samples = 2_000; S.width = 64 }
           ~jobs two_grids ~terminals:[ 0; 199 ]));
  (* The adaptive drivers: plain rounds on the chunk stream, and plan
     rounds whose strata draw on the pool. two_triangles resolves
     exactly at construction; fig1 at w = 2 leaves a plan to sample. *)
  List.iter
    (fun (what, run) -> check_all_equal what (runs run))
    [
      ( "Adaptive.monte_carlo",
        fun jobs ->
          Adaptive.monte_carlo ~seed:5 ~jobs fig1 ~terminals:[ 0; 4 ]
            ~ci_width:0.01 );
      ( "bitsliced Adaptive.monte_carlo",
        fun jobs ->
          Adaptive.monte_carlo ~seed:5 ~jobs ~kernel:Mcsampling.Bitsliced fig1
            ~terminals:[ 0; 4 ] ~ci_width:0.01 );
      ( "Adaptive.horvitz_thompson",
        fun jobs ->
          Adaptive.horvitz_thompson ~seed:5 ~jobs fig1 ~terminals:[ 0; 4 ]
            ~ci_width:0.01 );
      ( "Adaptive.reliability (two_triangles)",
        fun jobs ->
          Adaptive.reliability ~config ~jobs two_triangles ~terminals:[ 0; 4 ]
            ~ci_width:0.01 );
      ( "Adaptive.reliability (fig1)",
        fun jobs ->
          Adaptive.reliability ~config ~jobs fig1 ~terminals:[ 0; 4 ]
            ~ci_width:0.01 );
    ];
  print_endline "par_forced: OK (2 forced domains, all estimates invariant)"
