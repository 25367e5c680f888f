open Ir

type cfg = {
  machine : Machine.t;
  procs : int;
  opts : Comm.Model.opts;
}

type breakdown = {
  flop_ns : float;
  ref_ns : float;
  miss_ns : float;
  comm_ns : float;
  total_ns : float;
  contracted_elems : int;
}

let zero =
  {
    flop_ns = 0.0;
    ref_ns = 0.0;
    miss_ns = 0.0;
    comm_ns = 0.0;
    total_ns = 0.0;
    contracted_elems = 0;
  }

let add a b =
  {
    flop_ns = a.flop_ns +. b.flop_ns;
    ref_ns = a.ref_ns +. b.ref_ns;
    miss_ns = a.miss_ns +. b.miss_ns;
    comm_ns = a.comm_ns +. b.comm_ns;
    total_ns = a.total_ns +. b.total_ns;
    contracted_elems = a.contracted_elems + b.contracted_elems;
  }

type block_info = {
  stmts : Nstmt.t list;
  volumes : int array;  (** per statement, its region's volume *)
  stmt_refs : int array;
      (** per statement, its element references: 1 + reads, times its
          volume *)
  slots : (string, int) Hashtbl.t;
      (** array -> its slot: a dense per-block index, in order of first
          reference *)
  stream_slots : int array array;
  stream_bases : int array array;
      (** per statement, its reference streams in sweep order (the
          written array, then every read): each stream's slot and
          simulated base address *)
  weights : (string, int) Hashtbl.t;  (** array -> reference weight *)
  mult : int;
  base_refs : int;  (** element references per execution, before contraction *)
  flops : int;  (** floating-point operations per execution *)
}

(* A probe's result is decided by its line count and the base
   addresses of its streams, in order; the key is exactly that,
   [| lines; base_1; ...; base_k |]. *)
module Probe_memo = Hashtbl.Make (Support.Vec)

type t = {
  cfg : cfg;
  base : (string, int) Hashtbl.t;  (** array -> simulated base address *)
  blocks : block_info array;
  red_execs : int;
  memo : (float * float) Probe_memo.t;
      (** probe key -> (L1, L2) misses per execution *)
  memo_lock : Mutex.t;
      (** [memo] is the only mutable field touched after [create];
          parallel plan search costs sibling states from several
          domains against one [t] *)
}

(* A sweep longer than this is priced as this many lines, and the
   misses scaled linearly up to the real line count. *)
let probe_cap = 512
let eps = 1e-6

let alignment (m : Machine.t) =
  List.fold_left
    (fun acc (c : Cachesim.Cache.config) -> max acc c.Cachesim.Cache.line_bytes)
    256
    (m.Machine.l1 :: Option.to_list m.Machine.l2)

(* Each domain probes on one hierarchy of its own, kept from probe to
   probe and replaced only when a machine with other cache configs
   probes.  A probe reads its misses as deltas of the hierarchy's
   counters and afterwards invalidates every set it touched, so the
   next probe finds what a fresh hierarchy holds — at a cost per access
   rather than per set of the cache. *)
module H = Cachesim.Cache.Hierarchy

let probe_hierarchy :
    (Cachesim.Cache.config * Cachesim.Cache.config option * H.h) option
    Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let hierarchy (m : Machine.t) =
  match Domain.DLS.get probe_hierarchy with
  | Some (l1, l2, h) when l1 = m.Machine.l1 && l2 = m.Machine.l2 -> h
  | _ ->
      let h = H.create ~l1:m.Machine.l1 ?l2:m.Machine.l2 () in
      Domain.DLS.set probe_hierarchy (Some (m.Machine.l1, m.Machine.l2, h));
      h

let l1_misses h = (H.l1_stats h).Cachesim.Cache.misses

let l2_misses h =
  match H.l2_stats h with Some s -> s.Cachesim.Cache.misses | None -> 0

(* L1 misses of [key]'s sweep ([| lines; base_1; ...; base_k |]) and
   the L2 misses they cause, counted over [min lines probe_cap] steps
   of one L1 line per stream and scaled to [lines].

   Every base is a multiple of every line size, and no two streams'
   sweeps share a line unless their bases are equal ([create]'s layout,
   for references within their arrays' bounds).  So no line is reused
   across steps, and which streams share a cache set is the same at
   every step.  Each step therefore misses in L1 exactly like the
   first; in L2, whose line spans [period] L1 lines, every run of
   [period] steps starting at a multiple of [period] misses exactly
   like the first.  Simulating one period counts them all. *)
let sweep_misses (m : Machine.t) key =
  let l1_line = m.Machine.l1.Cachesim.Cache.line_bytes in
  let period =
    match m.Machine.l2 with
    | Some l2 -> max 1 (l2.Cachesim.Cache.line_bytes / l1_line)
    | None -> 1
  in
  let hier = hierarchy m in
  (* [l1_after.(i)], [l2_after.(i)]: the hierarchy's miss counters
     after the period's first [i] steps *)
  let l1_after = Array.make (period + 1) (l1_misses hier) in
  let l2_after = Array.make (period + 1) (l2_misses hier) in
  let k = Array.length key in
  (try
     for i = 0 to period - 1 do
       let off = i * l1_line in
       (* the hierarchy is write-allocate: a stream's access kind does
          not change what it hits *)
       for r = 1 to k - 1 do
         H.access hier ~addr:(key.(r) + off) ~write:false
       done;
       l1_after.(i + 1) <- l1_misses hier;
       l2_after.(i + 1) <- l2_misses hier
     done
   with e ->
     (* which sets the probe dirtied is unknown: drop the hierarchy *)
     let bt = Printexc.get_raw_backtrace () in
     Domain.DLS.set probe_hierarchy None;
     Printexc.raise_with_backtrace e bt);
  for i = 0 to period - 1 do
    for r = 1 to k - 1 do
      H.invalidate hier ~addr:(key.(r) + (i * l1_line))
    done
  done;
  let lines = key.(0) in
  let steps = min lines probe_cap in
  let count after =
    (steps / period * (after.(period) - after.(0)))
    + after.(steps mod period) - after.(0)
  in
  let scale = float_of_int lines /. float_of_int steps in
  ( float_of_int (count l1_after) *. scale,
    float_of_int (count l2_after) *. scale )

let create cfg prog =
  let skeleton = Prog.skeleton prog in
  let blocks =
    List.map (fun (b : Prog.block) -> b.stmts) (Prog.skeleton_blocks skeleton)
  in
  let mults, red_execs = Comm.Model.block_multipliers skeleton in
  (* Deterministic simulated layout: arrays in declaration order, each
     base aligned to a multiple of every line size of the machine, with
     a guard of that size between allocations so distinct arrays never
     share a cache line.  [sweep_misses] relies on both. *)
  let base = Hashtbl.create 16 in
  let align = alignment cfg.machine in
  let next = ref 0 in
  List.iter
    (fun (a : Prog.array_info) ->
      Hashtbl.replace base a.Prog.name !next;
      let bytes = (8 * Region.volume a.Prog.bounds) + align in
      next := (!next + bytes + align - 1) / align * align)
    prog.Prog.arrays;
  let info =
    List.mapi
      (fun bi stmts ->
        let flops =
          List.fold_left
            (fun acc (s : Nstmt.t) ->
              acc + (Comm.Model.expr_flops s.rhs * Region.volume s.region))
            0 stmts
        in
        let per_stmt f = Array.of_list (List.map f stmts) in
        let volumes = per_stmt (fun s -> Region.volume s.Nstmt.region) in
        let streams =
          per_stmt (fun s ->
              Array.of_list
                (s.Nstmt.lhs :: List.map fst (Expr.refs s.Nstmt.rhs)))
        in
        let slots = Hashtbl.create 16 in
        let slot x =
          match Hashtbl.find_opt slots x with
          | Some k -> k
          | None ->
              let k = Hashtbl.length slots in
              Hashtbl.add slots x k;
              k
        in
        let stream_slots = Array.map (Array.map slot) streams in
        let stream_bases =
          Array.map
            (Array.map (fun x ->
                 Option.value ~default:0 (Hashtbl.find_opt base x)))
            streams
        in
        (* one stream per element reference *)
        let stmt_refs =
          Array.mapi (fun i v -> Array.length streams.(i) * v) volumes
        in
        let weights = Hashtbl.create 16 in
        List.iter
          (fun (s : Nstmt.t) ->
            List.iter
              (fun x ->
                Hashtbl.replace weights x
                  (Option.value ~default:0 (Hashtbl.find_opt weights x)
                  + (Nstmt.ref_count s x * Region.volume s.region)))
              (Nstmt.arrays s))
          stmts;
        {
          stmts;
          volumes;
          stmt_refs;
          slots;
          stream_slots;
          stream_bases;
          weights;
          mult = mults.(bi);
          base_refs = Array.fold_left ( + ) 0 stmt_refs;
          flops;
        })
      blocks
  in
  {
    cfg;
    base;
    blocks = Array.of_list info;
    red_execs;
    memo = Probe_memo.create 256;
    memo_lock = Mutex.create ();
  }

let cfg t = t.cfg
let base t x = Hashtbl.find_opt t.base x

let block_weight t ~block x =
  Option.value ~default:0 (Hashtbl.find_opt t.blocks.(block).weights x)

let lines_of_volume t vol =
  let line = t.cfg.machine.Machine.l1.Cachesim.Cache.line_bytes in
  max 1 (((8 * vol) + line - 1) / line)

let slots t ~block = Hashtbl.length t.blocks.(block).slots
let slot t ~block x = Hashtbl.find_opt t.blocks.(block).slots x

let flags t ~block names =
  let f = Array.make (slots t ~block) false in
  List.iter
    (fun x -> Option.iter (fun k -> f.(k) <- true) (slot t ~block x))
    names;
  f

type array_facts = {
  refs : int array;
  weight : int;
  eligible : bool;
  slot : int;
}

type facts = {
  names : string array;
  cands : array_facts array;
}

let facts t ~block ~candidates g =
  let names = Array.of_list candidates in
  {
    names;
    cands =
      Array.map
        (fun x ->
          {
            refs = Array.of_list (Core.Asdg.stmts_referencing g x);
            weight = block_weight t ~block x;
            eligible = Core.Contraction.scalar_if_confined g x;
            slot = Option.value ~default:(-1) (slot t ~block x);
          })
        names;
  }

let scalar_contracted (bp : Sir.Scalarize.block_plan) =
  List.filter_map
    (function
      | x, Core.Contraction.Scalar -> Some x
      | _, Core.Contraction.Keep_dims _ -> None)
    bp.Sir.Scalarize.contracted

(* One fused cluster = one loop nest sweeping the cluster's region:
   an interleaved line-granular stream per reference, contracted arrays
   excluded.  Its probe key: the sweep's line count, then the streams'
   base addresses in sweep order.  Two passes over the streams: count,
   then fill. *)
let sweep t ~block members ~contracted =
  let info = t.blocks.(block) in
  let k = ref 0 in
  List.iter
    (fun i ->
      Array.iter
        (fun s -> if not contracted.(s) then incr k)
        info.stream_slots.(i))
    members;
  if !k = 0 then [||]
  else begin
    let key = Array.make (!k + 1) 0 in
    key.(0) <- lines_of_volume t info.volumes.(List.hd members);
    let j = ref 1 in
    List.iter
      (fun i ->
        let slots = info.stream_slots.(i) and bases = info.stream_bases.(i) in
        for r = 0 to Array.length slots - 1 do
          if not contracted.(slots.(r)) then begin
            key.(!j) <- bases.(r);
            incr j
          end
        done)
      members;
    key
  end

let cluster_misses t ~block members ~contracted =
  match sweep t ~block members ~contracted with
  | [||] -> (0.0, 0.0)
  | key -> (
      (* the lock covers only the table; a missed lookup is recomputed
         outside it — two domains may race the same probe, but the
         result is deterministic, so the duplicate work is benign *)
      match Mutex.protect t.memo_lock (fun () -> Probe_memo.find_opt t.memo key) with
      | Some r -> r
      | None ->
          let r = sweep_misses t.cfg.machine key in
          Mutex.protect t.memo_lock (fun () -> Probe_memo.replace t.memo key r);
          r)

(* every statement of [refs] from index [k] on is [inside]; a plain
   recursion, since it runs per candidate per ILP column *)
let rec all_in refs k inside =
  k >= Array.length refs
  || (Bytes.unsafe_get inside refs.(k) = '\001' && all_in refs (k + 1) inside)

(* w(C): the reference term after the contractions confined to [c] and
   the miss terms of its sweep, as [block_cost_of_misses] folds them
   for one cluster. *)
let cluster_weight t ~block facts c =
  let info = t.blocks.(block) in
  let m = t.cfg.machine in
  let inside = Bytes.make (Array.length info.volumes) '\000' in
  List.iter (fun i -> Bytes.set inside i '\001') c;
  let contracted = Array.make (slots t ~block) false and saved = ref 0 in
  Array.iter
    (fun f ->
      if f.eligible && all_in f.refs 0 inside then begin
        if f.slot >= 0 then contracted.(f.slot) <- true;
        saved := !saved + f.weight
      end)
    facts.cands;
  let refs = List.fold_left (fun acc i -> acc + info.stmt_refs.(i)) 0 c in
  let l1m, l2m = cluster_misses t ~block c ~contracted in
  float_of_int info.mult
  *. ((float_of_int (refs - !saved) *. m.Machine.l1_hit_ns)
     +. (l1m *. m.Machine.l1_miss_ns)
     +. (l2m *. m.Machine.l2_miss_ns))

let flop_ns t ~block =
  let info = t.blocks.(block) in
  float_of_int info.mult *. float_of_int info.flops
  *. t.cfg.machine.Machine.flop_ns

(* The one pricing formula.  [misses] are the clusters' (L1, L2) pairs
   in [Core.Partition.clusters] order, folded in that order, so a
   caller that reuses the pairs of unchanged clusters gets the same
   float sums, bit for bit, as [block_cost]'s fresh probes. *)
let block_cost_of_misses t ~block (bp : Sir.Scalarize.block_plan) ~saved
    misses =
  let info = t.blocks.(block) in
  let m = t.cfg.machine in
  let refs = info.base_refs - saved in
  let l1m, l2m =
    List.fold_left
      (fun (a1, a2) (s1, s2) -> (a1 +. s1, a2 +. s2))
      (0.0, 0.0) misses
  in
  let comm =
    Comm.Model.block_comm ~machine:m ~procs:t.cfg.procs ~opts:t.cfg.opts
      info.stmts bp
  in
  let fmult = float_of_int info.mult in
  let flop_ns = flop_ns t ~block in
  let ref_ns = fmult *. float_of_int refs *. m.Machine.l1_hit_ns in
  let miss_ns =
    fmult
    *. ((l1m *. m.Machine.l1_miss_ns) +. (l2m *. m.Machine.l2_miss_ns))
  in
  let comm_ns = fmult *. comm.Comm.Model.effective_ns in
  {
    flop_ns;
    ref_ns;
    miss_ns;
    comm_ns;
    total_ns = flop_ns +. ref_ns +. miss_ns +. comm_ns;
    contracted_elems = saved;
  }

let block_cost t ~block (bp : Sir.Scalarize.block_plan) =
  let names = scalar_contracted bp in
  let contracted = flags t ~block names in
  block_cost_of_misses t ~block bp
    ~saved:
      (List.fold_left (fun acc x -> acc + block_weight t ~block x) 0 names)
    (List.map
       (fun cluster -> cluster_misses t ~block cluster ~contracted)
       (Core.Partition.clusters bp.Sir.Scalarize.partition))

let plan_cost t plan =
  let sum =
    List.fold_left add zero
      (List.mapi (fun bi bp -> block_cost t ~block:bi bp) plan)
  in
  (* reduction combining trees, exactly as Comm.Model.analyze charges
     them; plan-invariant, kept so totals line up with the model *)
  let red =
    float_of_int t.red_execs
    *. Comm.Model.tree_ns ~machine:t.cfg.machine ~procs:t.cfg.procs
  in
  { sum with comm_ns = sum.comm_ns +. red; total_ns = sum.total_ns +. red }

let compiled_cost t (c : Compilers.Driver.compiled) =
  plan_cost t c.Compilers.Driver.plan
