type config = {
  machine : Machine.t;
  procs : int;
  comm : Model.opts;
}

type report = {
  time_ns : float;
  comp_ns : float;
  comm_ns : float;
  l1 : Cachesim.Cache.stats;
  l2 : Cachesim.Cache.stats option;
  flops : int;
  loads : int;
  stores : int;
  messages : int;
  msg_bytes : int;
  footprint_bytes : int;
  checksum : string;
}

type computation = {
  flops : int;
  loads : int;
  stores : int;
  l1 : Cachesim.Cache.stats;
  l2 : Cachesim.Cache.stats option;
  footprint_bytes : int;
  checksum : string;
}

let simulate (m : Machine.t) code =
  let hier =
    Cachesim.Cache.Hierarchy.create ~l1:m.Machine.l1 ?l2:m.Machine.l2 ()
  in
  let trace ~addr ~write =
    Cachesim.Cache.Hierarchy.access hier ~addr ~write
  in
  let result = Exec.Interp.run ~trace code in
  let cnt = Exec.Interp.counters result in
  Cachesim.Cache.Hierarchy.observe hier;
  {
    flops = cnt.Exec.Interp.flops;
    loads = cnt.Exec.Interp.loads;
    stores = cnt.Exec.Interp.stores;
    l1 = Cachesim.Cache.Hierarchy.l1_stats hier;
    l2 = Cachesim.Cache.Hierarchy.l2_stats hier;
    footprint_bytes = Exec.Interp.footprint_bytes code;
    checksum = Exec.Interp.checksum result;
  }

let time_ns (m : Machine.t) comp ~comm_ns =
  Machine.time_ns m
    {
      Machine.flops = comp.flops;
      l1_accesses = comp.l1.Cachesim.Cache.accesses;
      l1_misses = comp.l1.Cachesim.Cache.misses;
      l2_misses =
        (match comp.l2 with Some s -> s.Cachesim.Cache.misses | None -> 0);
      comm_ns;
    }

let measure cfg (c : Compilers.Driver.compiled) =
  let comp = simulate cfg.machine c.Compilers.Driver.code in
  let comm =
    Model.analyze ~machine:cfg.machine ~procs:cfg.procs ~opts:cfg.comm c
  in
  let time = time_ns cfg.machine comp ~comm_ns:comm.Model.effective_ns in
  {
    time_ns = time;
    comp_ns = time -. comm.Model.effective_ns;
    comm_ns = comm.Model.effective_ns;
    l1 = comp.l1;
    l2 = comp.l2;
    flops = comp.flops;
    loads = comp.loads;
    stores = comp.stores;
    messages = comm.Model.messages;
    msg_bytes = comm.Model.bytes;
    footprint_bytes = comp.footprint_bytes;
    checksum = comp.checksum;
  }

let improvement_pct ~baseline r =
  100.0 *. (baseline.time_ns -. r.time_ns) /. r.time_ns
