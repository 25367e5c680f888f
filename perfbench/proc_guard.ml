(* Child processes the benchmark starts.  Every child is recorded until
   it has been waited for, so an early exit (a failed check, an
   exception, SIGTERM) still stops and reaps each one. *)

let live : int list ref = ref []

let forget pid = live := List.filter (( <> ) pid) !live

let spawn prog args =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close devnull)
      (fun () ->
        Unix.create_process prog
          (Array.of_list (prog :: args))
          devnull devnull Unix.stderr)
  in
  live := pid :: !live;
  pid

let rec waitpid flags pid =
  match Unix.waitpid flags pid with
  | r -> Some r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid flags pid
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> None

let alive pid =
  match waitpid [ Unix.WNOHANG ] pid with
  | Some (0, _) -> true
  | _ ->
      forget pid;
      false

(* Wait up to [grace_s] for the child to exit on its own, then kill it;
   either way it has been reaped when this returns. *)
let reap ~grace_s pid =
  if List.mem pid !live then begin
    let deadline = Obs.now_ns () +. (grace_s *. 1e9) in
    let rec poll () =
      match waitpid [ Unix.WNOHANG ] pid with
      | Some (0, _) when Obs.now_ns () < deadline ->
          Unix.sleepf 0.01;
          poll ()
      | Some (0, _) ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (waitpid [] pid)
      | _ -> ()
    in
    poll ();
    forget pid
  end

let reap_all () = List.iter (reap ~grace_s:0.0) !live
