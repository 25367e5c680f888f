(* The SPMD execution engine.

   Interpretation: the compiled program describes the *global* problem.
   Every array is block-distributed over one processor grid per array
   rank (Comm.Dist supplies the factorization, so the engine and the
   analytical model agree on the grid).  Chunk boundaries are computed
   once per (rank, dimension) from the union of all same-rank array
   bounds and statement and reduction regions, so same-index elements
   of different arrays — and the iteration point that computes them —
   always live on the same processor: offset-0 references are local by
   construction, and every iteration point has an owner, the owner of
   its chunk.

   Execution is superstep-structured (BSP): one superstep per step of
   Comm.Model.schedule, i.e. per fusible cluster in the emission order
   the scalarizer uses.  A superstep delivers the step's messages, then
   runs the cluster's members statement by statement: each tops up the
   ghost slabs its references cross into that the model did not
   schedule (counted as [unmodeled_exchanges]) and then runs on every
   processor over its owned points, through Exec.Interp.  The step ends
   at a barrier.  Every message and reduction tree is priced by
   Comm.Model.  Statement-at-a-time execution in cluster order is a
   linear extension of the block's dependence graph, so values are
   bit-identical to the sequential reference execution; reductions
   accumulate in canonical global row-major order for the same reason,
   while the log2 p combining tree is charged to the clock.

   Ghost coherence is generational: each array has a write generation,
   bumped after every statement that writes it, and each filled slab
   records the generation and depth it was filled with.  A slab is
   current when its generation is the array's. *)

open Ir

type config = {
  machine : Machine.t;
  procs : int;
  opts : Comm.Model.opts;
  cachesim : bool;
}

type proc_counters = {
  mutable loads : int;
  mutable stores : int;
  mutable flops : int;
  mutable comm_ns : float;
}

type report = {
  machine : string;
  procs : int;
  checksum : string;
  time_ns : float;
  supersteps : int;
  charged_messages : int;
  charged_bytes : int;
  wire_messages : int;
  wire_bytes : int;
  reduction_messages : int;
  unmodeled_exchanges : int;
  ghost_fills : int;
  l1 : Cachesim.Cache.stats option;
  l2 : Cachesim.Cache.stats option;
}

(* the charged and wire totals are flat here and nested on the wire *)
let report_codec =
  let open Obs.Codec in
  let traffic =
    obj
      (record (fun messages bytes -> (messages, bytes))
      |+ field "messages" int fst |+ field "bytes" int snd)
  in
  let stats =
    obj
      (record (fun accesses hits misses ->
           { Cachesim.Cache.accesses; hits; misses })
      |+ field "accesses" int (fun (s : Cachesim.Cache.stats) -> s.accesses)
      |+ field "hits" int (fun (s : Cachesim.Cache.stats) -> s.hits)
      |+ field "misses" int (fun (s : Cachesim.Cache.stats) -> s.misses))
  in
  obj
    (record
       (fun () machine procs checksum time_ns supersteps
            (charged_messages, charged_bytes) (wire_messages, wire_bytes)
            reduction_messages unmodeled_exchanges ghost_fills l1 l2 ->
         { machine; procs; checksum; time_ns; supersteps; charged_messages;
           charged_bytes; wire_messages; wire_bytes; reduction_messages;
           unmodeled_exchanges; ghost_fills; l1; l2 })
    |+ field "schema" (const (Obs.Json.String "zapc/spmd-report/1")) ignore
    |+ field "machine" string (fun r -> r.machine)
    |+ field "procs" int (fun r -> r.procs)
    |+ field "checksum" string (fun r -> r.checksum)
    |+ field "time_ns" float (fun r -> r.time_ns)
    |+ field "supersteps" int (fun r -> r.supersteps)
    |+ field "charged" traffic (fun r -> (r.charged_messages, r.charged_bytes))
    |+ field "wire" traffic (fun r -> (r.wire_messages, r.wire_bytes))
    |+ field "reduction_messages" int (fun r -> r.reduction_messages)
    |+ field "unmodeled_exchanges" int (fun r -> r.unmodeled_exchanges)
    |+ field "ghost_fills" int (fun r -> r.ghost_fills)
    |+ field "l1" (nullable stats) (fun r -> r.l1)
    |+ field "l2" (nullable stats) (fun r -> r.l2))

type run = { report : report; per_proc : proc_counters array }

exception Unsupported of string
exception Runtime_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt
let unsup fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

(* ------------------------------------------------------------------ *)
(* Grids, chunks, tiles                                                *)
(* ------------------------------------------------------------------ *)

(* One grid per array rank: Dist's factorization plus the global
   chunking range per dimension (union of all same-rank array bounds
   and iteration regions, so chunk boundaries align across arrays and
   every iteration point has an owner). *)
type grid = {
  per_dim : int array;
  glo : int array;
  ghi : int array;
}

let grid_procs g = Array.fold_left ( * ) 1 g.per_dim

(* Balanced block partition of [glo..ghi] into per_dim.(k) chunks:
   the first (total mod p) chunks are one element wider. *)
let chunk g k j =
  let total = g.ghi.(k) - g.glo.(k) + 1 in
  let p = g.per_dim.(k) in
  let q = total / p and m = total mod p in
  let lo = g.glo.(k) + (j * q) + min j m in
  let w = q + if j < m then 1 else 0 in
  (lo, lo + w - 1)

let owner_dim g k idx =
  let total = g.ghi.(k) - g.glo.(k) + 1 in
  let p = g.per_dim.(k) in
  let rel = idx - g.glo.(k) in
  if rel < 0 || rel >= total then err "index %d outside global range in dim %d" idx (k + 1);
  let q = total / p and m = total mod p in
  let threshold = (q + 1) * m in
  if rel < threshold then rel / (q + 1) else m + ((rel - threshold) / q)

let min_chunk_width g k =
  let total = g.ghi.(k) - g.glo.(k) + 1 in
  let p = g.per_dim.(k) in
  if p = 1 then total else total / p

let coord_of g pr =
  let rank = Array.length g.per_dim in
  let c = Array.make rank 0 in
  let r = ref pr in
  for k = rank - 1 downto 0 do
    c.(k) <- !r mod g.per_dim.(k);
    r := !r / g.per_dim.(k)
  done;
  c

let linear_of g c =
  let l = ref 0 in
  Array.iteri (fun k x -> l := (!l * g.per_dim.(k)) + x) c;
  !l

let in_grid g c =
  let ok = ref true in
  Array.iteri (fun k x -> if x < 0 || x >= g.per_dim.(k) then ok := false) c;
  !ok

(* One processor's tile of one array: the owned chunk extended by the
   halo, clipped to the array's allocation bounds. *)
type tile = {
  dims : (int * int) array;  (** the window (owned + halo), per dim *)
  strides : int array;
  data : float array;
  base : int;  (** element base address (per-processor address space) *)
}

type arr = {
  info : Prog.array_info;
  grid : grid;
  rank : int;
  tiles : tile array;
  mutable wgen : int;  (** write generation, bumped per writing cluster execution *)
  slabs : (int array, int * int array) Hashtbl.t array;
      (** per proc: ghost direction -> (generation, filled depth) *)
}

let bound arr k = Region.range arr.info.bounds (k + 1)

let volume dims =
  Array.fold_left (fun v (lo, hi) -> v * max 0 (hi - lo + 1)) 1 dims

let mk_tile (a : Prog.array_info) grid halo base pr =
  let rank = Region.rank a.bounds in
  let c = coord_of grid pr in
  let dims =
    Array.init rank (fun k ->
        let lo, hi = chunk grid k c.(k) in
        let { Region.lo = blo; hi = bhi } = Region.range a.bounds (k + 1) in
        (max blo (lo - halo.(k)), min bhi (hi + halo.(k))))
  in
  let strides = Array.make rank 1 in
  for k = rank - 2 downto 0 do
    let lo, hi = dims.(k + 1) in
    strides.(k) <- strides.(k + 1) * max 0 (hi - lo + 1)
  done;
  { dims; strides; data = Array.make (max 1 (volume dims)) 0.0; base }

(* ------------------------------------------------------------------ *)
(* The execution environment                                           *)
(* ------------------------------------------------------------------ *)

type env = {
  cfg : config;
  prog : Prog.t;
  skeleton : Prog.node list;
      (** block indices match the plan and the model schedule *)
  arrs : (string, arr) Hashtbl.t;
  views : (string * int * (int * int) array * float array) list array;
      (** per proc: every array's tile, as Exec.Interp.run_over takes it *)
  scalars : (string, float) Hashtbl.t;
  pc : proc_counters array;
  hier : Cachesim.Cache.Hierarchy.h array;  (** empty when cachesim is off *)
  grids : (int, grid) Hashtbl.t;  (** by rank *)
  coords : (int, int array array) Hashtbl.t;  (** by rank, per proc *)
  sched : Comm.Model.block_sched array;  (** by block index *)
  tp : float array;  (** per-proc clock *)
  mutable now : float;  (** common clock at the last barrier *)
  mutable supersteps : int;
  mutable charged_messages : int;
  mutable charged_bytes : int;
  mutable wire_messages : int;
  mutable wire_bytes : int;
  mutable reduction_messages : int;
  mutable unmodeled : int;
  mutable ghost_fills : int;
}

let find_arr env x =
  match Hashtbl.find_opt env.arrs x with
  | Some a -> a
  | None -> err "undeclared array %s" x

let grid_for grids rank =
  match Hashtbl.find_opt grids rank with
  | Some g -> g
  | None -> err "no grid of rank %d" rank

let coords_for env rank = Hashtbl.find env.coords rank

(* Processor [pr]'s chunk of dimension [k] of the rank-[rank] grid. *)
let chunk_of env rank pr k =
  chunk (grid_for env.grids rank) k (coords_for env rank).(pr).(k)

let flat_of tile idx =
  let f = ref 0 in
  Array.iteri
    (fun k x ->
      let lo, hi = tile.dims.(k) in
      if x < lo || x > hi then
        err "index %d outside halo window [%d..%d] in dim %d" x lo hi (k + 1);
      f := !f + ((x - lo) * tile.strides.(k)))
    idx;
  !f

let peek arr pr idx = arr.tiles.(pr).data.(flat_of arr.tiles.(pr) idx)

(* ------------------------------------------------------------------ *)
(* Message delivery and ghost fills                                    *)
(* ------------------------------------------------------------------ *)

let record_slab arr pr dir depth =
  let fresh =
    match Hashtbl.find_opt arr.slabs.(pr) dir with
    | Some (gen, d) when gen = arr.wgen -> Array.map2 max d depth
    | _ -> Array.copy depth
  in
  Hashtbl.replace arr.slabs.(pr) (Array.copy dir) (arr.wgen, fresh)

(* Copy one ghost slab from the sender's owned cells into the
   receiver's halo.  In uncrossed dimensions the slab spans the
   receiver's full owned range (clipped to the array bounds); in
   crossed ones it is [depth] elements beyond the chunk boundary.
   Returns the number of elements copied. *)
let fill_slab env arr ~pr ~sr dir depth =
  let tr = arr.tiles.(pr) and ts = arr.tiles.(sr) in
  let rank = arr.rank in
  let lo = Array.make rank 0 and hi = Array.make rank 0 in
  let empty = ref false in
  for k = 0 to rank - 1 do
    let { Region.lo = blo; hi = bhi } = bound arr k in
    let clo, chi = chunk_of env rank pr k in
    let l, h =
      if dir.(k) = 0 then (max blo clo, min bhi chi)
      else if dir.(k) < 0 then (max blo (clo - depth.(k)), min bhi (clo - 1))
      else (max blo (chi + 1), min bhi (chi + depth.(k)))
    in
    lo.(k) <- l;
    hi.(k) <- h;
    if l > h then empty := true
  done;
  record_slab arr pr dir depth;
  if !empty then 0
  else begin
    let n = ref 0 in
    let idx = Array.copy lo in
    let rec go k =
      if k = rank then begin
        tr.data.(flat_of tr idx) <- ts.data.(flat_of ts idx);
        incr n
      end
      else
        for x = lo.(k) to hi.(k) do
          idx.(k) <- x;
          go (k + 1)
        done
    in
    go 0;
    if !n > 0 then env.ghost_fills <- env.ghost_fills + 1;
    !n
  end

let count_wire env bytes =
  env.wire_messages <- env.wire_messages + 1;
  env.wire_bytes <- env.wire_bytes + bytes

(* The one exchange path, scheduled or not: processor [pr] receives
   [slabs] (array, direction, depth) from its neighbor at [dir].  Every
   slab is filled and recorded, an empty one too; if any element moved,
   one wire message is counted and the receiver's clock and [comm_ns]
   are charged [price bytes].  False when [pr] has no neighbor at
   [dir]. *)
let exchange env rank ~pr dir slabs ~price =
  let grid = grid_for env.grids rank in
  let c = (coords_for env rank).(pr) in
  let sc = Array.init rank (fun k -> c.(k) + dir.(k)) in
  in_grid grid sc
  && begin
       let sr = linear_of grid sc in
       let elems =
         List.fold_left
           (fun acc (arr, d, depth) -> acc + fill_slab env arr ~pr ~sr d depth)
           0 slabs
       in
       if elems > 0 then begin
         let bytes = 8 * elems in
         count_wire env bytes;
         let wait = price bytes in
         env.tp.(pr) <- env.tp.(pr) +. wait;
         env.pc.(pr).comm_ns <- env.pc.(pr).comm_ns +. wait
       end;
       true
     end

(* Deliver one scheduled message on every processor that has the
   matching neighbor.  The charge (model currency) is per message per
   block execution; the wire cost is per actual sender->receiver pair,
   and the receiver waits what Comm.Model.wait_ns leaves of it after
   the time since the message was [posted]. *)
let deliver env rank (m : Comm.Model.message) ~posted =
  env.charged_messages <- env.charged_messages + 1;
  env.charged_bytes <- env.charged_bytes + m.m_bytes;
  let slabs =
    List.map
      (fun (p : Comm.Model.part) ->
        (find_arr env p.p_array, p.p_dir, p.p_depth))
      m.m_parts
  in
  let price =
    Comm.Model.wait_ns ~machine:env.cfg.machine ~opts:env.cfg.opts
      ~window:(env.now -. posted)
  in
  for pr = 0 to env.cfg.procs - 1 do
    ignore (exchange env rank ~pr m.m_dir slabs ~price : bool)
  done

(* Ghost needs the schedule may not cover: for every remote reference,
   enumerate the crossing patterns its reads actually produce on each
   processor (exact, per-dimension interval arithmetic on rectangles)
   and top up any slab that is stale or too shallow.  Such fills exist
   only for reference shapes outside the model's vocabulary (diagonal
   subset patterns, reduction arguments at an offset, and under c2+p
   a read across a chunk boundary of what an earlier statement of the
   cluster wrote) and are counted as [unmodeled]. *)
let ensure_needs env rank ~(region : Region.t) refs =
  let grid = grid_for env.grids rank in
  let coords = coords_for env rank in
  List.iter
    (fun (x, (off : Support.Vec.t)) ->
      let crossing_possible = ref false in
      Array.iteri
        (fun k p -> if p > 1 && off.(k) <> 0 then crossing_possible := true)
        grid.per_dim;
      if !crossing_possible then begin
        let arr = find_arr env x in
        for pr = 0 to env.cfg.procs - 1 do
          let c = coords.(pr) in
          let empty = ref false in
          let occ =
            Array.init rank (fun k ->
                let clo, chi = chunk grid k c.(k) in
                let { Region.lo = rlo; hi = rhi } = Region.range region (k + 1) in
                let ilo = max rlo clo and ihi = min rhi chi in
                if ilo > ihi then begin
                  empty := true;
                  [ 0 ]
                end
                else begin
                  let lo' = ilo + off.(k) and hi' = ihi + off.(k) in
                  let l = if hi' > chi then [ 1 ] else [] in
                  let l = if hi' >= clo && lo' <= chi then 0 :: l else l in
                  if lo' < clo then -1 :: l else l
                end)
          in
          if not !empty then begin
            (* cartesian product of per-dim crossing classes *)
            let rec patterns k acc =
              if k = rank then
                if Array.for_all (fun d -> d = 0) acc then ()
                else begin
                  let dir = Array.copy acc in
                  let need =
                    Array.mapi (fun j d -> if d = 0 then 0 else abs off.(j)) dir
                  in
                  let fresh =
                    match Hashtbl.find_opt arr.slabs.(pr) dir with
                    | Some (gen, depth) when gen = arr.wgen ->
                        Array.for_all2 ( <= ) need depth
                    | _ -> false
                  in
                  if not fresh then begin
                    if
                      not
                        (exchange env rank ~pr dir [ (arr, dir, need) ]
                           ~price:(Comm.Model.transfer_ns ~machine:env.cfg.machine))
                    then err "unmodeled exchange with no neighbor (%s)" x;
                    env.unmodeled <- env.unmodeled + 1
                  end
                end
              else
                List.iter
                  (fun d ->
                    acc.(k) <- d;
                    patterns (k + 1) acc)
                  occ.(k)
            in
            patterns 0 (Array.make rank 0)
          end
        done
      end)
    refs

(* ------------------------------------------------------------------ *)
(* Compute costing                                                     *)
(* ------------------------------------------------------------------ *)

type snap = { s_loads : int; s_stores : int; s_flops : int; s_l1m : int; s_l2m : int }

let snapshot env pr =
  let c = env.pc.(pr) in
  let l1m, l2m =
    if Array.length env.hier > 0 then
      let h = env.hier.(pr) in
      ( (Cachesim.Cache.Hierarchy.l1_stats h).Cachesim.Cache.misses,
        match Cachesim.Cache.Hierarchy.l2_stats h with
        | Some s -> s.Cachesim.Cache.misses
        | None -> 0 )
    else (0, 0)
  in
  { s_loads = c.loads; s_stores = c.stores; s_flops = c.flops; s_l1m = l1m; s_l2m = l2m }

let charge_compute env pr s0 =
  let s1 = snapshot env pr in
  let t =
    Machine.time_ns env.cfg.machine
      {
        Machine.flops = s1.s_flops - s0.s_flops;
        l1_accesses = s1.s_loads - s0.s_loads + (s1.s_stores - s0.s_stores);
        l1_misses = s1.s_l1m - s0.s_l1m;
        l2_misses = s1.s_l2m - s0.s_l2m;
        comm_ns = 0.0;
      }
  in
  env.tp.(pr) <- env.tp.(pr) +. t

let barrier env =
  let m = Array.fold_left max env.now env.tp in
  env.now <- m;
  Array.fill env.tp 0 (Array.length env.tp) m;
  m

(* ------------------------------------------------------------------ *)
(* Statement execution                                                 *)
(* ------------------------------------------------------------------ *)

(* Run [body] on processor [pr] through Exec.Interp, inside row-major
   loops over [box] (dimension k's loop variable is [loop_var (k + 1)]),
   over the processor's tiles and [extra] arrays and the current
   scalars; add its loads, flops and, when [stores], its stores to the
   processor's counters, and trace its accesses (its stores only when
   [stores]) into the processor's caches. *)
let run_on env pr ?(extra = []) ?(stores = true) box body =
  let rec nest k =
    if k = Array.length box then body
    else
      let lo, hi = box.(k) in
      [
        Sir.Code.For
          { var = Sir.Code.loop_var (k + 1); lo; hi; step = 1; body = nest (k + 1) };
      ]
  in
  let p =
    {
      Sir.Code.name = env.prog.Prog.name;
      allocs = [];
      scalars = Hashtbl.fold (fun x v acc -> (x, v) :: acc) env.scalars [];
      body = nest 0;
      live_out = [];
    }
  in
  let trace =
    if Array.length env.hier = 0 then None
    else
      let h = env.hier.(pr) in
      Some
        (fun ~addr ~write ->
          if stores || not write then Cachesim.Cache.Hierarchy.access h ~addr ~write)
  in
  match Exec.Interp.run_over ?trace (extra @ env.views.(pr)) p with
  | exception Exec.Interp.Runtime_error m -> raise (Runtime_error m)
  | r ->
      let c = Exec.Interp.counters r and pc = env.pc.(pr) in
      pc.loads <- pc.loads + c.loads;
      pc.flops <- pc.flops + c.flops;
      if stores then pc.stores <- pc.stores + c.stores;
      r

(* [region] clipped to processor [pr]'s chunk; [None] when empty. *)
let owned env pr (region : Region.t) =
  let rank = Region.rank region in
  let box =
    Array.init rank (fun k ->
        let lo, hi = chunk_of env rank pr k in
        let { Region.lo = rlo; hi = rhi } = Region.range region (k + 1) in
        (max lo rlo, min hi rhi))
  in
  if Array.exists (fun (lo, hi) -> lo > hi) box then None else Some box

(* Each statement runs on every processor once the ghosts its
   references cross into are current, so a statement sees every write
   of the statements before it, fused or not.  Compute is charged once
   per processor per superstep. *)
let exec_superstep env rank (step : Comm.Model.step) ~posted =
  Obs.span "spmd-superstep" @@ fun () ->
  env.supersteps <- env.supersteps + 1;
  List.iter
    (fun (m : Comm.Model.message) ->
      deliver env rank m ~posted:(posted m.m_producer))
    step.s_messages;
  let snaps = Array.init env.cfg.procs (snapshot env) in
  List.iter
    (fun (s : Nstmt.t) ->
      ensure_needs env rank ~region:s.region (Expr.refs s.rhs);
      let body = [ Sir.Scalarize.tr_astmt [] s ] in
      for pr = 0 to env.cfg.procs - 1 do
        Option.iter
          (fun box -> ignore (run_on env pr box body : Exec.Interp.result))
          (owned env pr s.region)
      done;
      let a = find_arr env s.lhs in
      a.wgen <- a.wgen + 1)
    step.s_stmts;
  Array.iteri (charge_compute env) snaps;
  barrier env

(* A message is posted at the end of its producer's superstep, or at
   block entry when no earlier cluster of the block writes it. *)
let exec_block env bi =
  let bs = env.sched.(bi) in
  let step_end = Array.make (Array.length bs.Comm.Model.b_steps) 0.0 in
  let block_start = env.now in
  let posted q = if q < 0 then block_start else step_end.(q) in
  Array.iteri
    (fun si step -> step_end.(si) <- exec_superstep env bs.b_rank step ~posted)
    bs.b_steps

(* Reductions: every processor evaluates the argument at the points it
   owns into a buffer of its own (untraced, uncounted stores), and the
   contributions are folded in canonical global row-major order —
   bit-identical to the sequential interpreters.  The clock and the
   message counters are charged for the log2 p combining tree the
   runtime would use (the divergence from a real tree's accumulation
   order is documented in docs/spmd.md). *)
let exec_reduce env { Prog.target; op; region; arg; _ } =
  Obs.span "spmd-superstep" @@ fun () ->
  env.supersteps <- env.supersteps + 1;
  let rank = Region.rank region in
  let procs = env.cfg.procs in
  ensure_needs env rank ~region (Expr.refs arg);
  let grid = grid_for env.grids rank in
  let snaps = Array.init procs (snapshot env) in
  (* the buffer's name is empty, which no declared array's is *)
  let body =
    [
      Sir.Code.Store
        ( "",
          Array.init rank (fun k ->
              { Sir.Code.base = Sir.Code.loop_var (k + 1); off = 0 }),
          Sir.Scalarize.tr_expr [] arg );
    ]
  in
  let args =
    Array.init procs (fun pr ->
        match owned env pr region with
        | None -> [||]
        | Some box ->
            let buf = Array.make (volume box) 0.0 in
            ignore
              (run_on env pr ~extra:[ ("", 0, box, buf) ] ~stores:false box body
                : Exec.Interp.result);
            buf)
  in
  let next = Array.make procs 0 in
  let acc = ref (Prog.redop_init op) in
  let apply = Expr.apply_binop (Prog.redop_binop op) in
  Region.iter region (fun idx ->
      let c = Array.mapi (fun k x -> owner_dim grid k x) idx in
      let pr = linear_of grid c in
      let v = args.(pr).(next.(pr)) in
      next.(pr) <- next.(pr) + 1;
      env.pc.(pr).flops <- env.pc.(pr).flops + 1;
      acc := apply !acc v);
  Hashtbl.replace env.scalars target !acc;
  for pr = 0 to procs - 1 do
    charge_compute env pr snaps.(pr)
  done;
  let stages = Comm.Model.reduction_stages procs in
  if stages > 0 then begin
    env.charged_messages <- env.charged_messages + stages;
    env.reduction_messages <- env.reduction_messages + stages;
    let cost = Comm.Model.tree_ns ~machine:env.cfg.machine ~procs in
    for pr = 0 to procs - 1 do
      env.tp.(pr) <- env.tp.(pr) +. cost;
      env.pc.(pr).comm_ns <- env.pc.(pr).comm_ns +. cost
    done;
    (* binomial combining tree: p-1 wire messages of one double each *)
    for s = 0 to stages - 1 do
      let step = 1 lsl s in
      let r = ref 0 in
      while !r + step < procs do
        count_wire env 8;
        r := !r + (2 * step)
      done
    done
  end;
  ignore (barrier env)

let exec_sassign env x e =
  let procs = env.cfg.procs in
  let r = run_on env 0 [||] [ Sir.Code.Sassign (x, Sir.Scalarize.tr_expr [] e) ] in
  let df = (Exec.Interp.counters r).flops in
  Hashtbl.replace env.scalars x (Exec.Interp.get_scalar r x);
  (* scalar work is replicated on every processor *)
  let t = float_of_int df *. env.cfg.machine.Machine.flop_ns in
  for pr = 0 to procs - 1 do
    if pr > 0 then env.pc.(pr).flops <- env.pc.(pr).flops + df;
    env.tp.(pr) <- env.tp.(pr) +. t
  done;
  env.now <- env.now +. t

(* A block's trailing reductions run as their own supersteps after it,
   whether or not the plan fused them into its nests. *)
let rec exec_node env = function
  | Prog.Block b ->
      exec_block env b.Prog.index;
      List.iter (exec_reduce env) b.Prog.trailing
  | Prog.Reduction r -> exec_reduce env r
  | Prog.Scalar (x, e) -> exec_sassign env x e
  | Prog.Loop { var; lo; hi; body } ->
      for i = lo to hi do
        Hashtbl.replace env.scalars var (float_of_int i);
        List.iter (exec_node env) body
      done

(* ------------------------------------------------------------------ *)
(* Setup                                                               *)
(* ------------------------------------------------------------------ *)

(* Apply [astmt] to every array statement and [reduce] to every
   reduction of the program, in program order. *)
let iter_work ~astmt ~reduce skeleton =
  Prog.fold
    (fun () -> function
      | Prog.Block b ->
          List.iter astmt b.Prog.stmts;
          List.iter reduce b.Prog.trailing
      | Prog.Reduction r -> reduce r
      | Prog.Scalar _ | Prog.Loop _ -> ())
    () skeleton

let setup (cfg : config) (c : Compilers.Driver.compiled) =
  let prog = c.Compilers.Driver.prog in
  let skeleton = Prog.skeleton prog in
  let procs = cfg.procs in
  (* halos: per array, per dim, the max |offset| of any reference *)
  let halos = Hashtbl.create 16 in
  let note_ref x (off : Support.Vec.t) =
    let cur =
      match Hashtbl.find_opt halos x with
      | Some h -> h
      | None ->
          let h = Array.make (Support.Vec.rank off) 0 in
          Hashtbl.replace halos x h;
          h
    in
    Array.iteri (fun k d -> cur.(k) <- max cur.(k) (abs d)) off
  in
  let note_refs e = List.iter (fun (x, o) -> note_ref x o) (Expr.refs e) in
  iter_work skeleton
    ~astmt:(fun (s : Nstmt.t) -> note_refs s.rhs)
    ~reduce:(fun (r : Prog.reduction) -> note_refs r.arg);
  (* grids: one per array rank, chunking each dimension over the union
     of that rank's array bounds and iteration regions, so that every
     iteration point has an owner (a region may lie outside every
     array, e.g. a reduction of a constant) *)
  let grids = Hashtbl.create 4 in
  let cover ~array (r : Region.t) =
    let rank = Region.rank r in
    let g =
      match Hashtbl.find_opt grids rank with
      | Some g -> g
      | None when array ->
          let g =
            {
              per_dim = Comm.Dist.per_dim (Comm.Dist.make ~rank ~procs);
              glo = Array.make rank max_int;
              ghi = Array.make rank min_int;
            }
          in
          Hashtbl.replace grids rank g;
          g
      | None -> unsup "iteration of rank %d has no arrays to derive a grid from" rank
    in
    for k = 0 to rank - 1 do
      let { Region.lo; hi } = Region.range r (k + 1) in
      g.glo.(k) <- min g.glo.(k) lo;
      g.ghi.(k) <- max g.ghi.(k) hi
    done
  in
  List.iter (fun (a : Prog.array_info) -> cover ~array:true a.bounds) prog.Prog.arrays;
  iter_work skeleton
    ~astmt:(fun (s : Nstmt.t) -> cover ~array:false s.region)
    ~reduce:(fun (r : Prog.reduction) -> cover ~array:false r.region);
  (* supportability checks *)
  iter_work skeleton
    ~astmt:(fun (s : Nstmt.t) ->
      let g = grid_for grids (Region.rank s.region) in
      Array.iteri
        (fun k d ->
          if d <> 0 && g.per_dim.(k) > 1 then
            unsup "write offset %d in distributed dimension %d (%s)" d (k + 1)
              s.lhs)
        s.lhs_off)
    ~reduce:ignore;
  Hashtbl.iter
    (fun x halo ->
      match Prog.find_array prog x with
      | None -> ()
      | Some a ->
          let g = grid_for grids (Region.rank a.bounds) in
          Array.iteri
            (fun k h ->
              if h > 0 && g.per_dim.(k) > 1 && h > min_chunk_width g k then
                unsup "halo of %s (depth %d) exceeds the smallest chunk in dim %d"
                  x h (k + 1))
            halo)
    halos;
  (* tiles *)
  let arrs = Hashtbl.create 16 in
  let bases = Array.make procs 0 in
  List.iter
    (fun (a : Prog.array_info) ->
      let rank = Region.rank a.bounds in
      let grid = Hashtbl.find grids rank in
      let halo =
        match Hashtbl.find_opt halos a.name with
        | Some h -> h
        | None -> Array.make rank 0
      in
      let tiles =
        Array.init procs (fun pr ->
            let t = mk_tile a grid halo bases.(pr) pr in
            (* pad allocations apart, as the sequential interpreter does *)
            bases.(pr) <- bases.(pr) + volume t.dims + 8;
            t)
      in
      Hashtbl.replace arrs a.name
        {
          info = a;
          grid;
          rank;
          tiles;
          wgen = 0;
          slabs = Array.init procs (fun _ -> Hashtbl.create 8);
        })
    prog.Prog.arrays;
  let views =
    Array.init procs (fun pr ->
        Hashtbl.fold
          (fun name arr acc ->
            let t = arr.tiles.(pr) in
            (name, t.base, t.dims, t.data) :: acc)
          arrs [])
  in
  let coords = Hashtbl.create 4 in
  Hashtbl.iter
    (fun rank grid ->
      if grid_procs grid <> procs then
        err "grid of rank %d covers %d processors, expected %d" rank
          (grid_procs grid) procs;
      Hashtbl.replace coords rank (Array.init procs (coord_of grid)))
    grids;
  let scalars = Hashtbl.create 16 in
  List.iter (fun (s, v) -> Hashtbl.replace scalars s v) prog.Prog.scalars;
  let n_blocks =
    Prog.fold (fun n -> function Prog.Block _ -> n + 1 | _ -> n) 0 skeleton
  in
  let n_plans = List.length c.Compilers.Driver.plan in
  if n_plans <> n_blocks then
    err "plan has %d blocks, program has %d" n_plans n_blocks;
  let sched =
    Array.of_list
      (Comm.Model.schedule ~machine:cfg.machine ~procs ~opts:cfg.opts c)
  in
  {
    cfg;
    prog;
    skeleton;
    arrs;
    views;
    scalars;
    pc =
      Array.init procs (fun _ ->
          { loads = 0; stores = 0; flops = 0; comm_ns = 0.0 });
    hier =
      (if cfg.cachesim then
         Array.init procs (fun _ ->
             Cachesim.Cache.Hierarchy.create ~l1:cfg.machine.Machine.l1
               ?l2:cfg.machine.Machine.l2 ())
       else [||]);
    grids;
    coords;
    sched;
    tp = Array.make procs 0.0;
    now = 0.0;
    supersteps = 0;
    charged_messages = 0;
    charged_bytes = 0;
    wire_messages = 0;
    wire_bytes = 0;
    reduction_messages = 0;
    unmodeled = 0;
    ghost_fills = 0;
  }

(* ------------------------------------------------------------------ *)
(* Checksum and report                                                 *)
(* ------------------------------------------------------------------ *)

let checksum env =
  let d = ref Exec.Interp.Digest.empty in
  let mix v = d := Exec.Interp.Digest.mix !d v in
  List.iter
    (fun name ->
      match Hashtbl.find_opt env.arrs name with
      | Some arr ->
          Region.iter arr.info.bounds (fun idx ->
              let c = Array.mapi (fun k x -> owner_dim arr.grid k x) idx in
              mix (peek arr (linear_of arr.grid c) idx))
      | None -> (
          match Hashtbl.find_opt env.scalars name with
          | Some v -> mix v
          | None -> err "live-out %s not found" name))
    env.prog.Prog.live_out;
  Exec.Interp.Digest.to_hex !d

let sum_stats get env =
  if Array.length env.hier = 0 then None
  else
    Array.fold_left
      (fun acc h ->
        match get h with
        | None -> acc
        | Some (s : Cachesim.Cache.stats) -> (
            match acc with
            | None -> Some s
            | Some (a : Cachesim.Cache.stats) ->
                Some
                  {
                    Cachesim.Cache.accesses = a.accesses + s.accesses;
                    hits = a.hits + s.hits;
                    misses = a.misses + s.misses;
                  }))
      None env.hier

let execute (cfg : config) (c : Compilers.Driver.compiled) =
  if cfg.procs < 1 then invalid_arg "Spmd.execute: procs must be >= 1";
  Obs.span "spmd-execute" @@ fun () ->
  let env = setup cfg c in
  List.iter (exec_node env) env.skeleton;
  let sum = checksum env in
  if Obs.enabled () then begin
    Obs.count "spmd.messages" env.wire_messages;
    Obs.count "spmd.bytes" env.wire_bytes;
    Obs.count "spmd.charged-messages" env.charged_messages;
    Obs.count "spmd.charged-bytes" env.charged_bytes;
    Obs.count "spmd.ghost-fills" env.ghost_fills;
    Obs.count "spmd.unmodeled-exchanges" env.unmodeled;
    Obs.count "spmd.supersteps" env.supersteps
  end;
  {
    report =
      {
        machine = cfg.machine.Machine.name;
        procs = cfg.procs;
        checksum = sum;
        time_ns = env.now;
        supersteps = env.supersteps;
        charged_messages = env.charged_messages;
        charged_bytes = env.charged_bytes;
        wire_messages = env.wire_messages;
        wire_bytes = env.wire_bytes;
        reduction_messages = env.reduction_messages;
        unmodeled_exchanges = env.unmodeled;
        ghost_fills = env.ghost_fills;
        l1 = sum_stats (fun h -> Some (Cachesim.Cache.Hierarchy.l1_stats h)) env;
        l2 = sum_stats Cachesim.Cache.Hierarchy.l2_stats env;
      };
    per_proc = env.pc;
  }
