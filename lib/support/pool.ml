(* A fixed-size domain pool with deterministic, ordered result
   collection.

   [with_workers] spawns the workers once; each then sleeps on
   [posted] until the caller hands it a batch.  A batch's tasks are
   claimed from an atomic cursor (dynamic load balancing: a slow task
   does not hold up the queue behind it), every domain writes its
   result into the slot of the task it claimed, and [batch] returns the
   slots in task order — so the *value* of a batch never depends on
   the number of workers or on the order in which they finish, only on
   [f] and the tasks.

   Exceptions do not kill the pool: a raising task records its
   exception (with backtrace) in its own slot and the domain moves on,
   so every task still runs exactly once.  After the last task
   finishes, the exception of the *lowest-indexed* failing task is
   re-raised — again independent of scheduling.

   The calling domain takes part in every batch, so with no workers (or
   a single task) a batch degrades to a plain sequential [List.map] in
   the calling domain — the sequential reference path the deterministic
   contract is defined against.  Note that workers have their own
   domain-local state: [Obs] recorders installed in the caller are
   *not* visible inside tasks (see docs/parallelism.md). *)

let default_domains () = max 1 (Domain.recommended_domain_count ())

type workers = {
  lock : Mutex.t;
  posted : Condition.t;  (** a batch was posted, or the pool is closing *)
  finished : Condition.t;  (** the current batch's last task finished *)
  mutable job : unit -> unit;  (** the latest batch's task-claiming loop *)
  mutable generation : int;  (** batches posted so far *)
  mutable closing : bool;
  mutable live : int;  (** worker domains running *)
}

(* A worker runs every batch posted after the last one it saw.  If it
   wakes late, the batch it missed was finished by the others (the
   caller waits for every task), and running a finished batch's loop
   claims nothing. *)
let rec serve w seen =
  Mutex.lock w.lock;
  while w.generation = seen && not w.closing do
    Condition.wait w.posted w.lock
  done;
  let generation = w.generation and job = w.job and closing = w.closing in
  Mutex.unlock w.lock;
  if not closing then begin
    job ();
    serve w generation
  end

let with_workers ~domains k =
  let w =
    {
      lock = Mutex.create ();
      posted = Condition.create ();
      finished = Condition.create ();
      job = ignore;
      generation = 0;
      closing = false;
      live = 0;
    }
  in
  (* the runtime caps the number of live domains and fails a spawn
     past the cap; the caller works every batch, so carry on with the
     workers already running *)
  let rec spawn acc i =
    if i <= 0 then acc
    else
      match Domain.spawn (fun () -> serve w 0) with
      | d -> spawn (d :: acc) (i - 1)
      | exception Failure _ -> acc
  in
  let spawned = spawn [] (domains - 1) in
  w.live <- List.length spawned;
  Fun.protect
    ~finally:(fun () ->
      Mutex.protect w.lock (fun () ->
          w.closing <- true;
          Condition.broadcast w.posted);
      List.iter Domain.join spawned)
    (fun () -> k w)

type 'b slot =
  | Pending
  | Done of 'b
  | Raised of exn * Printexc.raw_backtrace

let batch w f tasks =
  match tasks with
  | [] | [ _ ] -> List.map f tasks
  | _ when w.live = 0 -> List.map f tasks
  | _ ->
      let arr = Array.of_list tasks in
      let n = Array.length arr in
      let results = Array.make n Pending in
      let next = Atomic.make 0 in
      let left = Atomic.make n in
      let rec job () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          (results.(i) <-
            (match f arr.(i) with
            | v -> Done v
            | exception e -> Raised (e, Printexc.get_raw_backtrace ())));
          if Atomic.fetch_and_add left (-1) = 1 then
            Mutex.protect w.lock (fun () -> Condition.broadcast w.finished);
          job ()
        end
      in
      Mutex.protect w.lock (fun () ->
          w.job <- job;
          w.generation <- w.generation + 1;
          Condition.broadcast w.posted);
      job ();
      (* tasks other domains claimed may still be running *)
      Mutex.protect w.lock (fun () ->
          while Atomic.get left > 0 do
            Condition.wait w.finished w.lock
          done);
      Array.to_list results
      |> List.map (function
           | Done v -> v
           | Raised (e, bt) -> Printexc.raise_with_backtrace e bt
           | Pending -> assert false (* every index below n was claimed *))

let map ~domains f tasks =
  with_workers ~domains:(min domains (List.length tasks)) (fun w ->
      batch w f tasks)

let iter ~domains f tasks = ignore (map ~domains f tasks : unit list)
