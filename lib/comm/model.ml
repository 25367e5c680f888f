open Ir

type opts = {
  redundancy : bool;
  combining : bool;
  pipelining : bool;
}

let all_on = { redundancy = true; combining = true; pipelining = true }
let vectorize_only = { redundancy = false; combining = false; pipelining = false }

type summary = {
  messages : int;
  bytes : int;
  raw_ns : float;
  effective_ns : float;
  reduction_ns : float;
}

(* ------------------------------------------------------------------ *)
(* Static compute cost of a cluster (for overlap windows)              *)
(* ------------------------------------------------------------------ *)

let rec expr_flops (e : Expr.t) =
  match e with
  | Expr.Const _ | Expr.Svar _ | Expr.Ref _ | Expr.Idx _ -> 0
  | Expr.Unop (_, a) -> 1 + expr_flops a
  | Expr.Binop (_, a, b) -> 1 + expr_flops a + expr_flops b
  | Expr.Select (c, a, b) -> 1 + expr_flops c + expr_flops a + expr_flops b

let stmt_cost_ns ~(machine : Machine.t) (s : Nstmt.t) =
  let vol = float_of_int (Region.volume s.region) in
  let flops = float_of_int (expr_flops s.rhs) in
  let refs = float_of_int (List.length (Expr.refs s.rhs) + 1) in
  vol *. ((flops *. machine.Machine.flop_ns) +. (refs *. machine.Machine.l1_hit_ns))

let cluster_cost_ns ~machine p rep =
  let g = Core.Partition.asdg p in
  List.fold_left
    (fun acc i -> acc +. stmt_cost_ns ~machine (Core.Asdg.stmt g i))
    0.0
    (Core.Partition.members p rep)

(* ------------------------------------------------------------------ *)
(* Prices                                                              *)
(* ------------------------------------------------------------------ *)

let transfer_ns ~(machine : Machine.t) bytes =
  machine.Machine.msg_latency_ns +. (machine.Machine.byte_ns *. float_of_int bytes)

let wait_ns ~(machine : Machine.t) ~opts ~window bytes =
  let raw = transfer_ns ~machine bytes in
  if opts.pipelining then
    max (0.25 *. machine.Machine.msg_latency_ns) (raw -. window)
  else raw

let reduction_stages procs =
  if procs <= 1 then 0
  else int_of_float (ceil (log (float_of_int procs) /. log 2.0))

let tree_ns ~machine ~procs =
  float_of_int (reduction_stages procs) *. transfer_ns ~machine 8

(* ------------------------------------------------------------------ *)
(* Per-block message schedules                                         *)
(* ------------------------------------------------------------------ *)

type part = {
  p_array : string;
  p_dir : int array;
  p_depth : int array;  (** per-dimension ghost depth; 0 where [p_dir] is 0 *)
  p_bytes : int;
}

type message = {
  m_dir : int array;
  m_parts : part list;
  m_producer : int;
  m_consumer : int;
  m_bytes : int;
}

type step = {
  s_stmts : Nstmt.t list;
  s_cost : float;
  s_messages : message list;
}

type block_sched = {
  b_rank : int;
  b_steps : step array;
  b_inferred : int;
  b_kept : int;
}

(* A ghost slab covers the consumer's full region extent in the
   dimensions the message does not cross, and [depth] elements in the
   dimensions it does. *)
let slab_bytes region dir (depth : int array) =
  let n = Region.rank region in
  let elems = ref 1 in
  for k = 1 to n do
    let e =
      if dir.(k - 1) = 0 then Region.extent region k else depth.(k - 1)
    in
    elems := !elems * max 1 e
  done;
  8 * !elems

let depth_of_off dir (off : Support.Vec.t) =
  Array.mapi (fun k d -> if d = 0 then 0 else abs off.(k)) dir

let depth_covers a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> x >= y) a b

let depth_max a b = Array.map2 max a b

(* The schedule of one basic block: clusters in emission order, each
   with its statements, the arrays it writes, its remote reads (with
   componentwise-max merged ghost depths), and its compute cost.  Fusion legality
   (Def. 5(i)) makes all members of a cluster share one region. *)
type sched_entry = {
  stmts : Nstmt.t list;
  writes : string list;
  region : Region.t option;
  remote : (string * int array * int array) list;  (** array, dir, depth *)
  cost : float;
}

let block_schedule ~machine ~dist (bp : Sir.Scalarize.block_plan) =
  let p = bp.Sir.Scalarize.partition in
  let g = Core.Partition.asdg p in
  let contracted = List.map fst bp.Sir.Scalarize.contracted in
  let order = Sir.Scalarize.cluster_order p in
  List.map
    (fun rep ->
      let members = Core.Partition.members p rep in
      let stmts = List.map (Core.Asdg.stmt g) members in
      let writes =
        List.filter
          (fun x -> not (List.mem x contracted))
          (List.map (fun (s : Nstmt.t) -> s.lhs) stmts)
      in
      let region =
        match stmts with s :: _ -> Some s.Nstmt.region | [] -> None
      in
      let remote = ref [] in
      List.iter
        (fun (s : Nstmt.t) ->
          List.iter
            (fun (x, off) ->
              if not (List.mem x contracted) then
                match Dist.remote_dir dist off with
                | None -> ()
                | Some dir ->
                    let depth = depth_of_off dir off in
                    let key (x', d', _) = (x', d') in
                    let cur = !remote in
                    (match
                       List.find_opt (fun e -> key e = (x, dir)) cur
                     with
                    | Some (_, _, depth') when depth_covers depth' depth -> ()
                    | Some (_, _, depth') ->
                        remote :=
                          (x, dir, depth_max depth depth')
                          :: List.filter (fun e -> key e <> (x, dir)) cur
                    | None -> remote := (x, dir, depth) :: cur))
            (Expr.refs s.rhs))
        stmts;
      {
        stmts;
        writes;
        region;
        remote = List.rev !remote;
        cost = cluster_cost_ns ~machine p rep;
      })
    order

type event = {
  e_array : string;
  e_dir : int array;
  e_depth : int array;
  e_bytes : int;
  e_consumer : int;  (** cluster position in the block schedule *)
  e_producer : int;  (** last earlier position writing the array; -1 = block entry *)
}

let block_events sched =
  let arr = Array.of_list sched in
  let events = ref [] in
  Array.iteri
    (fun c entry ->
      List.iter
        (fun (x, dir, depth) ->
          (* last earlier cluster writing x *)
          let producer = ref (-1) in
          for q = 0 to c - 1 do
            if List.mem x arr.(q).writes then producer := q
          done;
          let bytes =
            match entry.region with
            | Some r -> slab_bytes r dir depth
            | None -> 0
          in
          events :=
            {
              e_array = x;
              e_dir = dir;
              e_depth = depth;
              e_bytes = bytes;
              e_consumer = c;
              e_producer = !producer;
            }
            :: !events)
        entry.remote)
    arr;
  List.rev !events

let eliminate_redundant sched events =
  let arr = Array.of_list sched in
  let written_between x a b =
    (* any write of x by clusters in positions [a, b) *)
    let hit = ref false in
    for q = max a 0 to b - 1 do
      if List.mem x arr.(q).writes then hit := true
    done;
    !hit
  in
  let kept = ref [] in
  List.filter
    (fun e ->
      let redundant =
        List.exists
          (fun e' ->
            e'.e_array = e.e_array && e'.e_dir = e.e_dir
            && depth_covers e'.e_depth e.e_depth
            && e'.e_bytes >= e.e_bytes
            && not (written_between e.e_array e'.e_consumer e.e_consumer))
          !kept
      in
      if not redundant then kept := e :: !kept;
      not redundant)
    events

let part_of_event e =
  { p_array = e.e_array; p_dir = e.e_dir; p_depth = e.e_depth; p_bytes = e.e_bytes }

let messages_of_events ~opts events =
  if opts.combining then begin
    (* one message per (consumer, dir), preserving first-seen order *)
    let groups = ref [] in
    List.iter
      (fun e ->
        let key = (e.e_consumer, e.e_dir) in
        match List.assoc_opt key !groups with
        | Some cell ->
            let parts, producer, bytes = !cell in
            cell := (part_of_event e :: parts, max producer e.e_producer,
                     bytes + e.e_bytes)
        | None ->
            groups :=
              !groups @ [ (key, ref ([ part_of_event e ], e.e_producer, e.e_bytes)) ])
      events;
    List.map
      (fun ((consumer, dir), cell) ->
        let parts, producer, bytes = !cell in
        {
          m_dir = dir;
          m_parts = List.rev parts;
          m_producer = producer;
          m_consumer = consumer;
          m_bytes = bytes;
        })
      !groups
  end
  else
    List.map
      (fun e ->
        {
          m_dir = e.e_dir;
          m_parts = [ part_of_event e ];
          m_producer = e.e_producer;
          m_consumer = e.e_consumer;
          m_bytes = e.e_bytes;
        })
      events

let block_sched_of ~(machine : Machine.t) ~procs ~opts stmts bp =
  let rank =
    match stmts with
    | (s : Nstmt.t) :: _ -> Region.rank s.Nstmt.region
    | [] -> 2
  in
  let dist = Dist.make ~rank ~procs in
  let sched = block_schedule ~machine ~dist bp in
  let events = block_events sched in
  let inferred = List.length events in
  let events =
    if opts.redundancy then eliminate_redundant sched events else events
  in
  let kept = List.length events in
  let msgs = messages_of_events ~opts events in
  let at = Array.make (List.length sched) [] in
  List.iter (fun m -> at.(m.m_consumer) <- m :: at.(m.m_consumer)) msgs;
  {
    b_rank = rank;
    b_steps =
      Array.of_list
        (List.mapi
           (fun i e ->
             { s_stmts = e.stmts; s_cost = e.cost; s_messages = List.rev at.(i) })
           sched);
    b_inferred = inferred;
    b_kept = kept;
  }

let schedule_plan ~machine ~procs ~opts prog plan =
  List.map2
    (fun bp stmts -> block_sched_of ~machine ~procs ~opts stmts bp)
    plan (Prog.blocks prog)

let schedule ~(machine : Machine.t) ~procs ~opts
    (c : Compilers.Driver.compiled) =
  schedule_plan ~machine ~procs ~opts c.Compilers.Driver.prog
    c.Compilers.Driver.plan

(* ------------------------------------------------------------------ *)
(* Whole-program analysis                                              *)
(* ------------------------------------------------------------------ *)

(* Per-block execution multipliers + total reduction executions: a
   loop multiplies by its trip count, and a block runs its trailing
   reductions as often as itself. *)
let block_multipliers skeleton =
  let rec walk mult acc nodes =
    List.fold_left
      (fun (mults, reds) -> function
        | Prog.Block b ->
            (mult :: mults, reds + (mult * List.length b.Prog.trailing))
        | Prog.Reduction _ -> (mults, reds + mult)
        | Prog.Scalar _ -> (mults, reds)
        | Prog.Loop { lo; hi; body; _ } ->
            walk (mult * max 0 (hi - lo + 1)) (mults, reds) body)
      acc nodes
  in
  (* the skeleton lists blocks in index order *)
  let mults, reds = walk 1 ([], 0) skeleton in
  (Array.of_list (List.rev mults), reds)

let zero_summary =
  { messages = 0; bytes = 0; raw_ns = 0.0; effective_ns = 0.0; reduction_ns = 0.0 }

(* One message's charge for a single execution of its block: the raw
   cost and the wait left after the clusters between its producer and
   its consumer hide what they can. *)
let message_ns ~machine ~opts bs m =
  let window = ref 0.0 in
  if opts.pipelining then
    for q = m.m_producer + 1 to m.m_consumer - 1 do
      window := !window +. bs.b_steps.(q).s_cost
    done;
  ( transfer_ns ~machine m.m_bytes,
    wait_ns ~machine ~opts ~window:!window m.m_bytes )

(* Each message of a block schedule, in step order. *)
let iter_messages f bs =
  Array.iter (fun st -> List.iter f st.s_messages) bs.b_steps

(* Cost of one block schedule for a single execution of the block —
   the per-message charges of [analyze], without the execution
   multiplier and without Obs instrumentation (this runs in the
   planner's search loop). *)
let sched_cost ~machine ~opts bs =
  let total = ref zero_summary in
  iter_messages
    (fun m ->
      let raw, eff = message_ns ~machine ~opts bs m in
      total :=
        {
          !total with
          messages = !total.messages + 1;
          bytes = !total.bytes + m.m_bytes;
          raw_ns = !total.raw_ns +. raw;
          effective_ns = !total.effective_ns +. eff;
        })
    bs;
  !total

let block_comm ~machine ~procs ~opts stmts bp =
  if procs <= 1 then zero_summary
  else sched_cost ~machine ~opts (block_sched_of ~machine ~procs ~opts stmts bp)

let analyze ~(machine : Machine.t) ~procs ~opts
    (c : Compilers.Driver.compiled) =
  Obs.span "comm-model" @@ fun () ->
  if procs <= 1 then zero_summary
  else begin
    let prog = c.Compilers.Driver.prog in
    let scheds =
      Array.of_list
        (schedule_plan ~machine ~procs ~opts prog c.Compilers.Driver.plan)
    in
    let block_mult, reductions = block_multipliers (Prog.skeleton prog) in
    let total = ref zero_summary in
    Array.iteri
      (fun bi bs ->
        let mult = block_mult.(bi) in
        if mult > 0 then begin
          let n_msgs =
            Array.fold_left
              (fun a st -> a + List.length st.s_messages)
              0 bs.b_steps
          in
          let obs = Obs.enabled () in
          if obs then begin
            Obs.count "comm.redundancy.exchanges-eliminated"
              (mult * (bs.b_inferred - bs.b_kept));
            Obs.count "comm.combining.messages-saved"
              (mult * (bs.b_kept - n_msgs))
          end;
          iter_messages
            (fun m ->
              let raw, eff = message_ns ~machine ~opts bs m in
              if obs then
                Obs.total "comm.pipelining.ns-hidden"
                  (float_of_int mult *. (raw -. eff));
              total :=
                {
                  !total with
                  messages = !total.messages + mult;
                  bytes = !total.bytes + (mult * m.m_bytes);
                  raw_ns = !total.raw_ns +. (float_of_int mult *. raw);
                  effective_ns =
                    !total.effective_ns +. (float_of_int mult *. eff);
                })
            bs
        end)
      scheds;
    (* reduction combining trees *)
    let red_total = float_of_int reductions *. tree_ns ~machine ~procs in
    let summary =
      {
        !total with
        messages = !total.messages + (reductions * reduction_stages procs);
        raw_ns = !total.raw_ns +. red_total;
        effective_ns = !total.effective_ns +. red_total;
        reduction_ns = red_total;
      }
    in
    if Obs.enabled () then begin
      Obs.count "comm.messages" summary.messages;
      Obs.count "comm.bytes" summary.bytes;
      Obs.total "comm.raw-ns" summary.raw_ns;
      Obs.total "comm.effective-ns" summary.effective_ns;
      Obs.total "comm.reduction-ns" summary.reduction_ns
    end;
    summary
  end
