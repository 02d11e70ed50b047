(* A work-stealing pool of OCaml 5 domains.

   Batches are partitioned round-robin into one slice per worker: worker
   w owns the task indices congruent to w.  Owners drain their slice
   front-to-back; a worker that runs dry steals from the other slices
   back-to-front, so owners and thieves meet in the middle of uneven
   slices.  Every slot is claimed with a compare-and-set, which makes the
   race benign: each task runs exactly once regardless of schedule.

   Determinism is the callers' contract: tasks write only to their own
   index's result slot and derive any randomness from their index, so the
   merged result is independent of which domain ran what. *)

type batch = { tasks : (int -> unit) array; claimed : bool Atomic.t array }

type t = {
  jobs : int;
  mutex : Mutex.t;
  work_cond : Condition.t;  (* new batch posted, or stopping *)
  done_cond : Condition.t;  (* remaining reached 0 *)
  mutable batch : batch option;
  mutable generation : int;
  mutable remaining : int;
  mutable first_exn : (exn * Printexc.raw_backtrace) option;
  mutable stopped : bool;
  mutable domains : unit Domain.t list;
  busy : bool Atomic.t;  (* a batch is in flight: nested runs go sequential *)
}

let jobs_from_env () =
  match Sys.getenv_opt "CH_JOBS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some j when j >= 1 -> j
      | _ -> invalid_arg (Printf.sprintf "CH_JOBS=%S: expected a positive integer" s))
  | None -> max 1 (Domain.recommended_domain_count ())

let jobs t = t.jobs

(* Run task [i] of [b], then retire it; exceptions are recorded (first
   wins) instead of escaping, so the batch always drains. *)
let run_task t b i =
  (try b.tasks.(i) i
   with e ->
     let bt = Printexc.get_raw_backtrace () in
     Mutex.lock t.mutex;
     if t.first_exn = None then t.first_exn <- Some (e, bt);
     Mutex.unlock t.mutex);
  Mutex.lock t.mutex;
  t.remaining <- t.remaining - 1;
  if t.remaining = 0 then Condition.broadcast t.done_cond;
  Mutex.unlock t.mutex

let claim b i = Atomic.compare_and_set b.claimed.(i) false true

(* Participate in batch [b] as worker [w]: drain own slice, then steal. *)
let work t b w =
  let n = Array.length b.tasks in
  let i = ref w in
  while !i < n do
    if claim b !i then run_task t b !i;
    i := !i + t.jobs
  done;
  for v = 1 to t.jobs - 1 do
    let v = (w + v) mod t.jobs in
    if v < n then begin
      let i = ref (v + ((n - 1 - v) / t.jobs * t.jobs)) in
      while !i >= 0 do
        if claim b !i then run_task t b !i;
        i := !i - t.jobs
      done
    end
  done

let worker t w () =
  (* A worker that oversleeps a whole batch (posted and fully drained by
     the others before it got the mutex) sees a fresh generation but
     [batch = None]; it must keep waiting for the next post rather than
     touch the vanished batch. *)
  let rec loop last_gen =
    Mutex.lock t.mutex;
    while
      (not t.stopped) && (t.generation = last_gen || Option.is_none t.batch)
    do
      Condition.wait t.work_cond t.mutex
    done;
    if t.stopped then Mutex.unlock t.mutex
    else begin
      let gen = t.generation in
      let b = Option.get t.batch in
      Mutex.unlock t.mutex;
      work t b w;
      loop gen
    end
  in
  loop 0

let shutdown t =
  Mutex.lock t.mutex;
  t.stopped <- true;
  Condition.broadcast t.work_cond;
  let ds = t.domains in
  t.domains <- [];
  Mutex.unlock t.mutex;
  List.iter Domain.join ds

let registry = ref []
let registry_mutex = Mutex.create ()
let () = at_exit (fun () -> List.iter shutdown !registry)

let create ?jobs () =
  let jobs = match jobs with Some j -> max 1 j | None -> jobs_from_env () in
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      work_cond = Condition.create ();
      done_cond = Condition.create ();
      batch = None;
      generation = 0;
      remaining = 0;
      first_exn = None;
      stopped = false;
      domains = [];
      busy = Atomic.make false;
    }
  in
  if jobs > 1 then begin
    t.domains <- List.init (jobs - 1) (fun w -> Domain.spawn (worker t (w + 1)));
    Mutex.lock registry_mutex;
    registry := t :: !registry;
    Mutex.unlock registry_mutex
  end;
  t

let default_pool = ref None

let default () =
  Mutex.lock registry_mutex;
  let t =
    match !default_pool with
    | Some t -> t
    | None ->
        (* create inside the lock would self-deadlock on registry_mutex *)
        Mutex.unlock registry_mutex;
        let t = create () in
        Mutex.lock registry_mutex;
        (match !default_pool with
        | Some t' -> t'
        | None ->
            default_pool := Some t;
            t)
  in
  Mutex.unlock registry_mutex;
  t

let once f =
  let cell = Atomic.make None and lock = Mutex.create () in
  fun () ->
    match Atomic.get cell with
    | Some v -> v
    | None ->
        Mutex.protect lock (fun () ->
            match Atomic.get cell with
            | Some v -> v
            | None ->
                let v = f () in
                Atomic.set cell (Some v);
                v)

let run_sequential tasks = List.iteri (fun i f -> f i) tasks

let run t tasks =
  let n = List.length tasks in
  if n = 0 then ()
  else if
    t.jobs = 1 || n = 1 || t.stopped
    || not (Atomic.compare_and_set t.busy false true)
  then run_sequential tasks
  else begin
    (* propagate the submitter's open-span path so worker-domain spans
       attach at the same place in the merged telemetry tree (the span
       tree shape is then independent of CH_JOBS) *)
    let ctx = Ch_obs.Obs.current_ctx () in
    let tasks =
      List.map (fun f i -> Ch_obs.Obs.with_ctx ctx (fun () -> f i)) tasks
    in
    let b =
      { tasks = Array.of_list tasks; claimed = Array.init n (fun _ -> Atomic.make false) }
    in
    Mutex.lock t.mutex;
    t.batch <- Some b;
    t.remaining <- n;
    t.first_exn <- None;
    t.generation <- t.generation + 1;
    Condition.broadcast t.work_cond;
    Mutex.unlock t.mutex;
    work t b 0;
    Mutex.lock t.mutex;
    while t.remaining > 0 do
      Condition.wait t.done_cond t.mutex
    done;
    let exn = t.first_exn in
    t.batch <- None;
    t.first_exn <- None;
    Mutex.unlock t.mutex;
    Atomic.set t.busy false;
    match exn with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end

let parallel_map t f xs =
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | _ ->
      let arr = Array.of_list xs in
      let out = Array.make (Array.length arr) None in
      run t
        (List.init (Array.length arr) (fun i _ -> out.(i) <- Some (f arr.(i))));
      Array.to_list (Array.map Option.get out)

let parallel_chunks t ?chunk_size ~lo ~hi f =
  if hi <= lo then []
  else begin
    let total = hi - lo in
    let chunk =
      match chunk_size with
      | Some c when c >= 1 -> c
      | Some c -> invalid_arg (Printf.sprintf "Pool.parallel_chunks: chunk_size %d" c)
      | None -> max 1 (total / (4 * t.jobs))
    in
    let nchunks = (total + chunk - 1) / chunk in
    parallel_map t
      (fun c ->
        let clo = lo + (c * chunk) in
        f clo (min hi (clo + chunk)))
      (List.init nchunks Fun.id)
  end
