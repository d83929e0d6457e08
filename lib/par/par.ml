(* Fixed-size domain pool with ordered (deterministic) reduction.
   See par.mli for the determinism contract. *)

let max_jobs = 64

let forced_domains () =
  match Sys.getenv_opt "NETREL_FORCE_DOMAINS" with
  | None -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some j when j >= 1 -> Some (min j max_jobs)
    | _ -> None)

let default_jobs () = min max_jobs (Domain.recommended_domain_count ())

let effective_jobs requested =
  if requested < 1 then invalid_arg "Par.effective_jobs: jobs < 1";
  match forced_domains () with
  | Some j -> j
  | None -> min requested max_jobs

(* Process-wide execution counters, for the structured-stats report:
   one batch per entry into a Par mapping (including the sequential
   fast paths, which are batches of the same work), one task per
   element mapped. Monotone over the process lifetime — report sites
   snapshot before and after the work they account for. *)
let batch_counter = Atomic.make 0
let task_counter = Atomic.make 0

type counters = { batches : int; tasks : int }

(* Optional dispatch probe (lib/trace installs one): called with the
   batch size on the submitting agent at every entry into a Par
   mapping, before any task runs. The callee must be thread-safe —
   nested batches are submitted from worker domains. *)
let batch_hook : (int -> unit) option ref = ref None

let set_batch_hook h = batch_hook := h

let count_batch n =
  if n > 0 then begin
    Atomic.incr batch_counter;
    ignore (Atomic.fetch_and_add task_counter n);
    match !batch_hook with None -> () | Some f -> f n
  end

let counters () =
  { batches = Atomic.get batch_counter; tasks = Atomic.get task_counter }

let chunks ~total ~target =
  if total < 0 then invalid_arg "Par.chunks: total < 0";
  if target < 1 then invalid_arg "Par.chunks: target < 1";
  if total = 0 then [||]
  else begin
    let n = (total + target - 1) / target in
    let base = total / n and extra = total mod n in
    let off = ref 0 in
    Array.init n (fun i ->
        let len = base + if i < extra then 1 else 0 in
        let o = !off in
        off := o + len;
        (o, len))
  end

module Pool = struct
  type t = {
    mutable workers : unit Domain.t array;
    queue : (unit -> unit) Queue.t;
    m : Mutex.t;
    work_available : Condition.t;
    mutable stop : bool;
  }

  (* Workers block on [work_available] until a task arrives or the pool
     shuts down. Tasks run outside the lock. *)
  let rec worker_loop t =
    Mutex.lock t.m;
    let rec next () =
      if t.stop then begin
        Mutex.unlock t.m;
        None
      end
      else
        match Queue.take_opt t.queue with
        | Some task ->
          Mutex.unlock t.m;
          Some task
        | None ->
          Condition.wait t.work_available t.m;
          next ()
    in
    match next () with
    | None -> ()
    | Some task ->
      task ();
      worker_loop t

  let spawn_workers t n =
    Array.init n (fun _ -> Domain.spawn (fun () -> worker_loop t))

  let create ~jobs =
    if jobs < 1 then invalid_arg "Par.Pool.create: jobs < 1";
    if jobs > max_jobs then invalid_arg "Par.Pool.create: jobs > max_jobs";
    let t =
      {
        workers = [||];
        queue = Queue.create ();
        m = Mutex.create ();
        work_available = Condition.create ();
        stop = false;
      }
    in
    t.workers <- spawn_workers t (jobs - 1);
    t

  let shutdown t =
    Mutex.lock t.m;
    let ws = t.workers in
    t.stop <- true;
    t.workers <- [||];
    Condition.broadcast t.work_available;
    Mutex.unlock t.m;
    Array.iter Domain.join ws

  let with_pool ~jobs f =
    let t = create ~jobs in
    Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

  (* One batch = [n] index-addressed tasks. The caller enqueues all of
     them, drains the queue itself (so a 1-job pool degenerates to a
     sequential loop and a worker submitting a nested batch keeps making
     progress instead of deadlocking), then waits for stragglers running
     on other domains. Results land in a slot array, so the reduction
     the caller performs afterwards is in index order by construction. *)
  let map t n f =
    count_batch n;
    if n <= 0 then [||]
    else if Array.length t.workers = 0 || n = 1 then Array.init n f
    else begin
      let results = Array.make n None in
      let remaining = Atomic.make n in
      let failed = Atomic.make None in
      let batch_m = Mutex.create () in
      let batch_done = Condition.create () in
      let task i () =
        (try results.(i) <- Some (f i)
         with e ->
           let bt = Printexc.get_raw_backtrace () in
           ignore (Atomic.compare_and_set failed None (Some (e, bt))));
        if Atomic.fetch_and_add remaining (-1) = 1 then begin
          Mutex.lock batch_m;
          Condition.broadcast batch_done;
          Mutex.unlock batch_m
        end
      in
      Mutex.lock t.m;
      for i = 0 to n - 1 do
        Queue.add (task i) t.queue
      done;
      Condition.broadcast t.work_available;
      Mutex.unlock t.m;
      let rec drain () =
        Mutex.lock t.m;
        match Queue.take_opt t.queue with
        | Some task ->
          Mutex.unlock t.m;
          task ();
          drain ()
        | None -> Mutex.unlock t.m
      in
      drain ();
      Mutex.lock batch_m;
      while Atomic.get remaining > 0 do
        Condition.wait batch_done batch_m
      done;
      Mutex.unlock batch_m;
      (match Atomic.get failed with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ());
      Array.map
        (function
          | Some v -> v
          | None -> invalid_arg "Par.Pool.map: missing result (task raised)")
        results
    end

  (* The process-wide pool: grown to the largest request, reused by
     every call site so repeated estimates do not respawn domains. *)
  let shared_mutex = Mutex.create ()
  let shared_pool : t option ref = ref None
  let at_exit_registered = ref false

  let shared ~jobs =
    if jobs < 1 then invalid_arg "Par.Pool.shared: jobs < 1";
    if jobs > max_jobs then invalid_arg "Par.Pool.shared: jobs > max_jobs";
    Mutex.lock shared_mutex;
    let t =
      match !shared_pool with
      | Some t ->
        let have = Array.length t.workers + 1 in
        if have < jobs then
          t.workers <- Array.append t.workers (spawn_workers t (jobs - have));
        t
      | None ->
        let t = create ~jobs in
        shared_pool := Some t;
        if not !at_exit_registered then begin
          at_exit_registered := true;
          at_exit (fun () ->
              Mutex.lock shared_mutex;
              let p = !shared_pool in
              shared_pool := None;
              Mutex.unlock shared_mutex;
              Option.iter shutdown p)
        end;
        t
    in
    Mutex.unlock shared_mutex;
    t
end

let run ~jobs n f =
  let jobs = effective_jobs jobs in
  if jobs <= 1 then begin
    count_batch n;
    Array.init n f
  end
  else Pool.map (Pool.shared ~jobs) n f
