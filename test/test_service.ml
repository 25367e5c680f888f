(* The zapd service layer (lib/service): program fingerprints, the
   LRU plan cache, the typed request API and its wire codecs,
   the engine's caching/determinism guarantees, and the socket
   server/client pair. *)

module Api = Service.Api
module Cache = Service.Cache
module Engine = Service.Engine
module Metrics = Service.Metrics
open Ir

let v = Support.Vec.of_list

(* ------------------------------------------------------------------ *)
(* Fingerprint                                                         *)
(* ------------------------------------------------------------------ *)

let golden_prog =
  {
    Prog.name = "golden";
    arrays =
      [
        {
          Prog.name = "A";
          bounds = Region.of_bounds [ (0, 9); (0, 9) ];
          kind = Prog.User;
        };
        {
          Prog.name = "B";
          bounds = Region.of_bounds [ (0, 9); (0, 9) ];
          kind = Prog.Compiler;
        };
      ];
    scalars = [ ("s", 1.5) ];
    body =
      [
        Prog.Astmt
          (Nstmt.make
             ~region:(Region.of_bounds [ (1, 8); (1, 8) ])
             ~lhs:"A"
             (Expr.Binop
                (Expr.Add, Expr.Ref ("B", v [ 0; 1 ]), Expr.Const 2.0)));
      ];
    live_out = [ "A" ];
  }

(* The committed content address of [golden_prog].  If this test
   breaks, every plan-cache key and fuzz repro filename in the wild
   changes meaning: bump deliberately or fix the regression. *)
let fingerprint_golden () =
  Alcotest.(check string)
    "golden program fingerprint is stable" "41bbb7ea1b1e2cd0"
    (Prog.fingerprint golden_prog)

let fingerprint_ignores_display_name () =
  Alcotest.(check string)
    "renamed program shares the fingerprint"
    (Prog.fingerprint golden_prog)
    (Prog.fingerprint { golden_prog with Prog.name = "renamed" })

let fingerprint_sensitivity () =
  let fp = Prog.fingerprint golden_prog in
  let changed_const =
    {
      golden_prog with
      Prog.body =
        [
          Prog.Astmt
            (Nstmt.make
               ~region:(Region.of_bounds [ (1, 8); (1, 8) ])
               ~lhs:"A"
               (Expr.Binop
                  (Expr.Add, Expr.Ref ("B", v [ 0; 1 ]), Expr.Const 3.0)));
        ];
    }
  in
  let changed_scalar = { golden_prog with Prog.scalars = [ ("s", 2.5) ] } in
  let changed_live = { golden_prog with Prog.live_out = [] } in
  Alcotest.(check bool)
    "constant change changes the fingerprint" true
    (fp <> Prog.fingerprint changed_const);
  Alcotest.(check bool)
    "scalar change changes the fingerprint" true
    (fp <> Prog.fingerprint changed_scalar);
  Alcotest.(check bool)
    "live-out change changes the fingerprint" true
    (fp <> Prog.fingerprint changed_live)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let metrics_no_collision () =
  let all = Metrics.all in
  Alcotest.(check int)
    "every key is distinct"
    (List.length all)
    (List.length (List.sort_uniq compare all));
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (k ^ " carries the service prefix")
        true
        (String.length k > String.length Metrics.prefix
        && String.sub k 0 (String.length Metrics.prefix) = Metrics.prefix))
    all;
  (* disjoint from every counter the rest of the pipeline pre-seeds *)
  let r = Obs.create () in
  let seeded = List.map fst (Obs.report r).Obs.counters in
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (k ^ " does not collide with a pipeline counter")
        false (List.mem k seeded))
    all

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)
(* ------------------------------------------------------------------ *)

let key i =
  { Cache.fingerprint = Printf.sprintf "%016x" i; mode = "greedy:c2+f3";
    machine = "-"; procs = 0 }

let cache_lru_eviction_order () =
  let c = Cache.create ~capacity:4 () in
  List.iter (fun i -> Cache.add c (key i) i) [ 1; 2; 3; 4 ];
  (* freshen 1 and 3: the least recently used entry is now 2 *)
  ignore (Cache.find c (key 1));
  ignore (Cache.find c (key 3));
  Cache.add c (key 5) 5;
  Alcotest.(check (option int)) "LRU victim evicted" None (Cache.find c (key 2));
  List.iter
    (fun i ->
      Alcotest.(check (option int))
        (Printf.sprintf "entry %d survives" i)
        (Some i)
        (Cache.find c (key i)))
    [ 1; 3; 4; 5 ];
  let s = Cache.stats c in
  Alcotest.(check int) "one eviction" 1 s.Cache.evictions;
  Alcotest.(check int) "population stays at capacity" 4 s.Cache.entries

let cache_capacity_bound () =
  let c = Cache.create ~capacity:16 () in
  for i = 1 to 200 do
    Cache.add c (key i) i
  done;
  let s = Cache.stats c in
  Alcotest.(check int) "population is the capacity" (Cache.capacity c)
    s.Cache.entries;
  Alcotest.(check int) "every insertion past it evicted one" (200 - 16)
    s.Cache.evictions

(* The default capacity is exact: 256 distinct keys fit, and the 257th
   evicts the least recently used one and nothing else. *)
let cache_default_capacity_exact () =
  let c = Cache.create () in
  Alcotest.(check int) "default capacity" 256 (Cache.capacity c);
  for i = 1 to 256 do
    Cache.add c (key i) i
  done;
  let s = Cache.stats c in
  Alcotest.(check int) "256 keys held" 256 s.Cache.entries;
  Alcotest.(check int) "no eviction at capacity" 0 s.Cache.evictions;
  (* freshen key 1: the least recently used entry is now key 2 *)
  ignore (Cache.find c (key 1));
  Cache.add c (key 257) 257;
  let s = Cache.stats c in
  Alcotest.(check int) "257th insertion evicts one" 1 s.Cache.evictions;
  Alcotest.(check (option int)) "the LRU key went" None (Cache.find c (key 2));
  for i = 1 to 257 do
    if i <> 2 then
      Alcotest.(check (option int))
        (Printf.sprintf "key %d kept" i)
        (Some i)
        (Cache.find c (key i))
  done

let cache_first_writer_wins () =
  let c = Cache.create ~capacity:4 () in
  Cache.add c (key 1) 10;
  Cache.add c (key 1) 99;
  Alcotest.(check (option int)) "first value kept" (Some 10) (Cache.find c (key 1));
  Alcotest.(check int) "one insertion" 1 (Cache.stats c).Cache.insertions

let cache_hit_miss_counts () =
  let c = Cache.create () in
  ignore (Cache.find c (key 1));
  Alcotest.(check int) "miss counted" 1 (Cache.stats c).Cache.misses;
  Alcotest.(check (result (pair int bool) string))
    "find_or_compute computes on a miss" (Ok (7, false))
    (Cache.find_or_compute c (key 1) (fun () -> Ok 7));
  Alcotest.(check (result (pair int bool) string))
    "find_or_compute then hits" (Ok (7, true))
    (Cache.find_or_compute c (key 1) (fun () -> Ok 8));
  let s = Cache.stats c in
  Alcotest.(check int) "hits" 1 s.Cache.hits;
  Alcotest.(check int) "misses" 2 s.Cache.misses

(* Concurrent misses on one key compute once: every domain gets the
   first caller's value, each call counts one hit or one miss.  The
   compute sleeps so that all eight domains arrive while it runs. *)
let cache_single_flight () =
  let c = Cache.create () in
  let computed = Atomic.make 0 in
  let arrived = Atomic.make 0 in
  let callers = 8 in
  let call () =
    Atomic.incr arrived;
    while Atomic.get arrived < callers do
      Domain.cpu_relax ()
    done;
    Cache.find_or_compute c (key 1) (fun () ->
        Atomic.incr computed;
        Unix.sleepf 0.2;
        Ok 42)
  in
  let results =
    List.map Domain.join (List.init callers (fun _ -> Domain.spawn call))
  in
  Alcotest.(check int) "compute ran once" 1 (Atomic.get computed);
  List.iter
    (fun r ->
      Alcotest.(check (result int string)) "every caller gets the value" (Ok 42)
        (Result.map fst r))
    results;
  let s = Cache.stats c in
  Alcotest.(check int) "one lookup counted per call" callers
    (s.Cache.hits + s.Cache.misses);
  Alcotest.(check int) "each caller told whether it counted a hit"
    s.Cache.hits
    (List.length (List.filter (fun r -> Result.map snd r = Ok true) results));
  (* an Error is not cached: the next call computes again *)
  let failing () = Error "no plan" in
  Alcotest.(check (result (pair int bool) string)) "error returned"
    (Error "no plan")
    (Cache.find_or_compute c (key 2) failing);
  Alcotest.(check (result (pair int bool) string)) "error not cached"
    (Ok (2, false))
    (Cache.find_or_compute c (key 2) (fun () -> Ok 2));
  (* a raising compute releases its key: the next caller computes
     instead of waiting forever *)
  (match Cache.find_or_compute c (key 3) (fun () -> failwith "boom") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "the exception must reach the caller");
  Alcotest.(check (result (pair int bool) string)) "key released"
    (Ok (3, false))
    (Cache.find_or_compute c (key 3) (fun () -> Ok 3))

(* ------------------------------------------------------------------ *)
(* Api codecs                                                          *)
(* ------------------------------------------------------------------ *)

let sample_opts =
  {
    Api.level = "c2+f4";
    plan = Api.Search;
    config = [ ("n", 32.0); ("eps", 0.125) ];
    merge = true;
    simplify = true;
    dump_ir = true;
    dump_plan = false;
    dump_c = true;
    emit_c = true;
  }

let sample_requests =
  [
    Api.Compile
      {
        source = Api.Bench { name = "ep"; tile = Some 256 };
        opts = sample_opts;
        target = { Api.machine = "paragon"; procs = 16 };
      };
    Api.Run
      {
        source = Api.Text { name = "x.zap"; text = "program x;\n" };
        opts = Api.default_compile_opts;
        target = Api.default_target;
        spmd = true;
        native = false;
      };
    Api.Plan
      {
        source = Api.Bench { name = "tomcatv"; tile = None };
        opts = { Api.default_compile_opts with Api.plan = Api.Search };
        target = { Api.machine = "sp2"; procs = 4 };
      };
    Api.Run
      {
        source = Api.Bench { name = "frac"; tile = Some 16 };
        opts =
          {
            Api.default_compile_opts with
            Api.plan = Api.Ilp;
            config = [ ("n", 48.0) ];
          };
        target = { Api.machine = "t3e"; procs = 4 };
        spmd = false;
        native = true;
      };
    Api.Batch [ Api.Stats; Api.Shutdown ];
    Api.Stats;
    Api.Shutdown;
  ]

let sample_provenance =
  {
    Plan.Driver.strategy = "search";
    machine = "Cray T3E";
    procs = 16;
    greedy_total_ns = 1234.5;
    search_total_ns = 1000.25;
    ilp_total_ns = None;
    chosen_total_ns = 1000.25;
    fallback = false;
    proved_optimal = None;
    certified_lb_ns = None;
    ilp_blocks = [];
    blocks =
      [
        {
          Plan.Driver.block = 0;
          stats =
            {
              Plan.Search.expanded = 10;
              generated = 40;
              pruned = 7;
              deduped = 3;
              beam_rounds = 0;
              greedy_ns = 1234.5;
              best_ns = 1000.25;
              improved = true;
            };
        };
      ];
  }

(* An ILP-planned provenance: the ILP-only fields are written, with a
   null certified bound, and one block's enumeration was capped. *)
let sample_ilp_provenance =
  {
    sample_provenance with
    Plan.Driver.strategy = "ilp";
    ilp_total_ns = Some 990.5;
    chosen_total_ns = 990.5;
    proved_optimal = Some false;
    certified_lb_ns = None;
    ilp_blocks =
      [
        {
          Plan.Driver.iblock = 0;
          istats =
            {
              Plan.Ilp.clusters = 512;
              complete = false;
              nodes = 3;
              cuts = 1;
              pivots = 57;
              proved = false;
              objective_exact = true;
              lower_bound_ns = None;
              greedy_ns = 1234.5;
              best_ns = 990.5;
              improved = true;
            };
        };
      ];
  }

let sample_summary =
  {
    Api.program = "ep";
    level = "c2+f3";
    arrays_total = 22;
    contracted_compiler = 0;
    contracted_user = 22;
    remaining = 0;
    footprint_bytes = 0;
    contracted = [ ("t1", "scalar"); ("t2", "dims:01") ];
    merged_away = [ "u" ];
    fingerprint = "00112233aabbccdd";
    dump_ir = Some "ir text\n";
    dump_plan = None;
    dump_c = Some "c text\n";
    emit_c = None;
  }

let sample_perf =
  {
    Api.machine = "Cray T3E";
    procs = 4;
    time_ns = 487000.5;
    comp_ns = 487000.25;
    comm_ns = 0.25;
    flops = 221184;
    loads = 17;
    stores = 3;
    l1_miss_pct = 21.34;
    l2_miss_pct = Some 1.5;
    messages = 12;
    msg_bytes = 4096;
    checksum = "308149a4cb0e1adc";
  }

let sample_spmd =
  {
    Spmd.machine = "Cray T3E";
    procs = 4;
    checksum = "308149a4cb0e1adc";
    time_ns = 4440000.0;
    supersteps = 13;
    charged_messages = 4;
    charged_bytes = 128;
    wire_messages = 6;
    wire_bytes = 160;
    reduction_messages = 1;
    unmodeled_exchanges = 0;
    ghost_fills = 2;
    l1 = Some { Cachesim.Cache.accesses = 20992; hits = 19472; misses = 1520 };
    l2 = None;
  }

let sample_native =
  {
    Api.native_checksum = "308149a4cb0e1adc";
    native_wall_ns = 57049L;
    native_compiler = "cc (Debian 12.2.0) 12.2.0";
    native_units = 13;
    native_matches = true;
  }

let sample_responses =
  [
    Api.Compiled { summary = sample_summary; provenance = Some sample_provenance };
    Api.Compiled { summary = sample_summary; provenance = None };
    Api.Ran
      {
        summary = sample_summary;
        provenance = None;
        perf = sample_perf;
        spmd = Some sample_spmd;
        native = None;
      };
    Api.Ran
      {
        summary = sample_summary;
        provenance = Some sample_provenance;
        perf = { sample_perf with Api.l2_miss_pct = None };
        spmd = None;
        native = Some sample_native;
      };
    Api.Planned { summary = sample_summary; provenance = Some sample_provenance };
    Api.Planned
      { summary = sample_summary; provenance = Some sample_ilp_provenance };
    Api.Batch_reply [ Api.Shutting_down; Api.Failed (Obs.Diagnostic.error ~phase:"cli" "boom") ];
    Api.Stats_reply
      {
        Api.requests = [ ("service.request.compile", 3) ];
        cache =
          {
            Api.cache_capacity = 256;
            entries = 2;
            hits = 1;
            misses = 2;
            evictions = 0;
            insertions = 2;
          };
        compiles_computed = 2;
        plans_computed = 1;
        natives_built = 1;
        natives_reused = 3;
        native_runs = 4;
      };
    Api.Shutting_down;
    Api.Failed (Obs.Diagnostic.error ~loc:("x.zap", 3) ~phase:"parse" "bad token");
  ]

let request_roundtrip () =
  List.iteri
    (fun i req ->
      match Api.request_of_json (Api.request_to_json req) with
      | Ok req' ->
          Alcotest.(check bool)
            (Printf.sprintf "request %d round-trips" i)
            true (req = req')
      | Error e -> Alcotest.failf "request %d failed to decode: %s" i e)
    sample_requests

let response_roundtrip () =
  List.iteri
    (fun i resp ->
      match Api.response_of_json (Api.response_to_json resp) with
      | Ok resp' ->
          Alcotest.(check bool)
            (Printf.sprintf "response %d round-trips" i)
            true (resp = resp')
      | Error e -> Alcotest.failf "response %d failed to decode: %s" i e)
    sample_responses

let wire_roundtrip () =
  (* through the actual wire encoding: JSON text line, parsed back *)
  List.iteri
    (fun i req ->
      let line = Obs.Json.to_string (Api.request_to_json req) in
      match Api.request_of_line line with
      | Ok req' ->
          Alcotest.(check bool)
            (Printf.sprintf "request %d survives the wire" i)
            true (req = req')
      | Error e -> Alcotest.failf "request %d failed on the wire: %s" i e)
    sample_requests;
  List.iteri
    (fun i resp ->
      let line = Obs.Json.to_string (Api.response_to_json resp) in
      match Result.bind (Obs.Json.of_string line) Api.response_of_json with
      | Ok resp' ->
          Alcotest.(check bool)
            (Printf.sprintf "response %d survives the wire" i)
            true (resp = resp')
      | Error e -> Alcotest.failf "response %d failed on the wire: %s" i e)
    sample_responses

(* The exact bytes of each sample on the wire.  zapc --connect output
   is byte-identical to local output only while these stay fixed: a
   change here is a protocol change (bump [Api.protocol_version]). *)
let golden_requests =
  [
    {|{"v":3,"op":"compile","source":{"bench":"ep","tile":256},"opts":{"level":"c2+f4","plan":"search","config":{"n":32.0,"eps":0.125},"merge":true,"simplify":true,"dump_ir":true,"dump_c":true,"emit_c":true},"target":{"machine":"paragon","procs":16}}|};
    {|{"v":3,"op":"run","source":{"name":"x.zap","text":"program x;\n"},"opts":{"level":"c2+f3","plan":"greedy"},"target":{"machine":"t3e","procs":1},"spmd":true}|};
    {|{"v":3,"op":"plan","source":{"bench":"tomcatv"},"opts":{"level":"c2+f3","plan":"search"},"target":{"machine":"sp2","procs":4}}|};
    {|{"v":3,"op":"run","source":{"bench":"frac","tile":16},"opts":{"level":"c2+f3","plan":"ilp","config":{"n":48.0}},"target":{"machine":"t3e","procs":4},"native":true}|};
    {|{"v":3,"op":"batch","requests":[{"v":3,"op":"stats"},{"v":3,"op":"shutdown"}]}|};
    {|{"v":3,"op":"stats"}|};
    {|{"v":3,"op":"shutdown"}|};
  ]

let golden_responses =
  [
    {|{"ok":true,"type":"compiled","summary":{"program":"ep","level":"c2+f3","arrays_total":22,"contracted_compiler":0,"contracted_user":22,"remaining":0,"footprint_bytes":0,"contracted":[{"array":"t1","shape":"scalar"},{"array":"t2","shape":"dims:01"}],"merged_away":["u"],"fingerprint":"00112233aabbccdd","dump_ir":"ir text\n","dump_c":"c text\n"},"provenance":{"strategy":"search","machine":"Cray T3E","procs":16,"greedy_total_ns":1234.5,"search_total_ns":1000.25,"chosen_total_ns":1000.25,"fallback":false,"blocks":[{"block":0,"expanded":10,"generated":40,"pruned":7,"deduped":3,"beam_rounds":0,"greedy_ns":1234.5,"best_ns":1000.25,"improved":true}]}}|};
    {|{"ok":true,"type":"compiled","summary":{"program":"ep","level":"c2+f3","arrays_total":22,"contracted_compiler":0,"contracted_user":22,"remaining":0,"footprint_bytes":0,"contracted":[{"array":"t1","shape":"scalar"},{"array":"t2","shape":"dims:01"}],"merged_away":["u"],"fingerprint":"00112233aabbccdd","dump_ir":"ir text\n","dump_c":"c text\n"}}|};
    {|{"ok":true,"type":"ran","summary":{"program":"ep","level":"c2+f3","arrays_total":22,"contracted_compiler":0,"contracted_user":22,"remaining":0,"footprint_bytes":0,"contracted":[{"array":"t1","shape":"scalar"},{"array":"t2","shape":"dims:01"}],"merged_away":["u"],"fingerprint":"00112233aabbccdd","dump_ir":"ir text\n","dump_c":"c text\n"},"perf":{"machine":"Cray T3E","procs":4,"time_ns":487000.5,"comp_ns":487000.25,"comm_ns":0.25,"flops":221184,"loads":17,"stores":3,"l1_miss_pct":21.34,"l2_miss_pct":1.5,"messages":12,"msg_bytes":4096,"checksum":"308149a4cb0e1adc"},"spmd":{"schema":"zapc/spmd-report/1","machine":"Cray T3E","procs":4,"checksum":"308149a4cb0e1adc","time_ns":4440000.0,"supersteps":13,"charged":{"messages":4,"bytes":128},"wire":{"messages":6,"bytes":160},"reduction_messages":1,"unmodeled_exchanges":0,"ghost_fills":2,"l1":{"accesses":20992,"hits":19472,"misses":1520},"l2":null}}|};
    {|{"ok":true,"type":"ran","summary":{"program":"ep","level":"c2+f3","arrays_total":22,"contracted_compiler":0,"contracted_user":22,"remaining":0,"footprint_bytes":0,"contracted":[{"array":"t1","shape":"scalar"},{"array":"t2","shape":"dims:01"}],"merged_away":["u"],"fingerprint":"00112233aabbccdd","dump_ir":"ir text\n","dump_c":"c text\n"},"provenance":{"strategy":"search","machine":"Cray T3E","procs":16,"greedy_total_ns":1234.5,"search_total_ns":1000.25,"chosen_total_ns":1000.25,"fallback":false,"blocks":[{"block":0,"expanded":10,"generated":40,"pruned":7,"deduped":3,"beam_rounds":0,"greedy_ns":1234.5,"best_ns":1000.25,"improved":true}]},"perf":{"machine":"Cray T3E","procs":4,"time_ns":487000.5,"comp_ns":487000.25,"comm_ns":0.25,"flops":221184,"loads":17,"stores":3,"l1_miss_pct":21.34,"messages":12,"msg_bytes":4096,"checksum":"308149a4cb0e1adc"},"native":{"checksum":"308149a4cb0e1adc","wall_ns":57049,"compiler":"cc (Debian 12.2.0) 12.2.0","units":13,"matches":true}}|};
    {|{"ok":true,"type":"planned","summary":{"program":"ep","level":"c2+f3","arrays_total":22,"contracted_compiler":0,"contracted_user":22,"remaining":0,"footprint_bytes":0,"contracted":[{"array":"t1","shape":"scalar"},{"array":"t2","shape":"dims:01"}],"merged_away":["u"],"fingerprint":"00112233aabbccdd","dump_ir":"ir text\n","dump_c":"c text\n"},"provenance":{"strategy":"search","machine":"Cray T3E","procs":16,"greedy_total_ns":1234.5,"search_total_ns":1000.25,"chosen_total_ns":1000.25,"fallback":false,"blocks":[{"block":0,"expanded":10,"generated":40,"pruned":7,"deduped":3,"beam_rounds":0,"greedy_ns":1234.5,"best_ns":1000.25,"improved":true}]}}|};
    {|{"ok":true,"type":"planned","summary":{"program":"ep","level":"c2+f3","arrays_total":22,"contracted_compiler":0,"contracted_user":22,"remaining":0,"footprint_bytes":0,"contracted":[{"array":"t1","shape":"scalar"},{"array":"t2","shape":"dims:01"}],"merged_away":["u"],"fingerprint":"00112233aabbccdd","dump_ir":"ir text\n","dump_c":"c text\n"},"provenance":{"strategy":"ilp","machine":"Cray T3E","procs":16,"greedy_total_ns":1234.5,"search_total_ns":1000.25,"chosen_total_ns":990.5,"fallback":false,"ilp_total_ns":990.5,"proved_optimal":false,"certified_lb_ns":null,"blocks":[{"block":0,"expanded":10,"generated":40,"pruned":7,"deduped":3,"beam_rounds":0,"greedy_ns":1234.5,"best_ns":1000.25,"improved":true}],"ilp_blocks":[{"block":0,"clusters":512,"complete":false,"nodes":3,"cuts":1,"pivots":57,"proved":false,"objective_exact":true,"lower_bound_ns":null,"greedy_ns":1234.5,"best_ns":990.5,"improved":true}]}}|};
    {|{"ok":true,"type":"batch","responses":[{"ok":true,"type":"shutting-down"},{"ok":false,"error":{"severity":"error","phase":"cli","message":"boom"}}]}|};
    {|{"ok":true,"type":"stats","stats":{"requests":{"service.request.compile":3},"cache":{"capacity":256,"entries":2,"hits":1,"misses":2,"evictions":0,"insertions":2},"compiles_computed":2,"plans_computed":1,"native":{"built":1,"reused":3,"runs":4}}}|};
    {|{"ok":true,"type":"shutting-down"}|};
    {|{"ok":false,"error":{"severity":"error","phase":"parse","file":"x.zap","line":3,"message":"bad token"}}|};
  ]

let wire_golden () =
  let check what enc samples goldens =
    Alcotest.(check int)
      (what ^ ": one golden per sample")
      (List.length samples) (List.length goldens);
    List.iteri
      (fun i (x, golden) ->
        Alcotest.(check string)
          (Printf.sprintf "%s %d encodes to its golden line" what i)
          golden
          (Obs.Json.to_string (enc x)))
      (List.combine samples goldens)
  in
  check "request" Api.request_to_json sample_requests golden_requests;
  check "response" Api.response_to_json sample_responses golden_responses

(* a well-formed line nested one level past the parser's cap *)
let deep_line =
  let d = Obs.Json.max_depth + 2 in
  String.make d '[' ^ String.make d ']'

let request_rejects_bad_input () =
  List.iter
    (fun line ->
      match Api.request_of_line line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted bad request line %S" line)
    [
      "not json";
      "{}";
      {|{"op":"frobnicate"}|};
      {|{"op":"compile"}|};
      {|{"op":"compile","source":{"bench":"ep"},"v":999}|};
      {|{"op":"stats","v":1}|};
      {|{"op":"stats","v":2}|};
      {|{"op":"compile","source":{"bench":"ep"},"opts":{"plan":"mystic"}}|};
      {|{"op":"run","source":{"bench":"ep"},"target":{"procs":1e19}}|};
      {|{"op":"\uzzzz"}|};
      deep_line;
    ]

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let source_ep = Api.Bench { name = "ep"; tile = Some 256 }

let greedy_run =
  Api.Run
    {
      source = source_ep;
      opts = Api.default_compile_opts;
      target = Api.default_target;
      spmd = false;
      native = false;
    }

let search_compile =
  Api.Compile
    {
      source = source_ep;
      opts = { Api.default_compile_opts with Api.plan = Api.Search };
      target = Api.default_target;
    }

let render resp = Obs.Json.to_string (Api.response_to_json resp)

let engine_cache_hit_matches_cold () =
  let e = Engine.create ~jobs:1 () in
  let cold = Engine.handle e greedy_run in
  let warm = Engine.handle e greedy_run in
  Alcotest.(check string)
    "warm response byte-identical to cold" (render cold) (render warm);
  (match (cold, warm) with
  | Api.Ran { perf = p1; _ }, Api.Ran { perf = p2; _ } ->
      Alcotest.(check string)
        "cache-hit run checksum equals cold checksum" p1.Api.checksum
        p2.Api.checksum
  | _ -> Alcotest.fail "expected Ran responses");
  let s = Engine.cache_stats e in
  Alcotest.(check int) "second request hit the cache" 1 s.Cache.hits;
  Alcotest.(check int) "one plan entry" 1 s.Cache.insertions

(* --dump-c and --emit-c show one printer's text: a request for both
   gets the same bytes twice, and each flag alone gets them too. *)
let engine_one_c_text () =
  let e = Engine.create ~jobs:1 () in
  let c_of dump_c emit_c =
    match
      Engine.handle e
        (Api.Compile
           {
             source = source_ep;
             opts = { Api.default_compile_opts with Api.dump_c; emit_c };
             target = Api.default_target;
           })
    with
    | Api.Compiled { summary; _ } -> (summary.Api.dump_c, summary.Api.emit_c)
    | other -> Alcotest.failf "expected Compiled: %s" (render other)
  in
  match (c_of true true, c_of true false, c_of false true) with
  | (Some d, Some c), (Some d', None), (None, Some c') ->
      Alcotest.(check string) "dump_c == emit_c in one reply" d c;
      Alcotest.(check string) "dump_c alone is the same text" d d';
      Alcotest.(check string) "emit_c alone is the same text" d c';
      Alcotest.(check bool) "it is the C translation unit" true
        (Astring.String.is_infix ~affix:"int main(void)" d)
  | _ -> Alcotest.fail "each requested C field must be present, and only those"

let engine_warm_search_skips_planning () =
  let e = Engine.create ~jobs:1 () in
  let cold = Engine.handle e search_compile in
  let computed_after_cold = (Engine.server_stats e).Api.plans_computed in
  Alcotest.(check int) "cold search planned once" 1 computed_after_cold;
  let warm = Engine.handle e search_compile in
  Alcotest.(check int)
    "warm search did not re-plan" computed_after_cold
    (Engine.server_stats e).Api.plans_computed;
  Alcotest.(check string)
    "warm search response byte-identical" (render cold) (render warm)

let engine_batch_deterministic_across_domains () =
  let reqs =
    List.concat (List.init 3 (fun _ -> [ greedy_run; search_compile ]))
  in
  let outputs =
    List.map
      (fun jobs ->
        let e = Engine.create ~jobs () in
        match Engine.handle e (Api.Batch reqs) with
        | Api.Batch_reply rs -> List.map render rs
        | other -> [ render other ])
      [ 1; 2; 8 ]
  in
  match outputs with
  | o1 :: rest ->
      Alcotest.(check int) "all requests answered" (List.length reqs)
        (List.length o1);
      List.iteri
        (fun i o ->
          Alcotest.(check (list string))
            (Printf.sprintf "domain count %d matches baseline" i)
            o1 o)
        rest
  | [] -> ()

(* A batch of identical cold requests plans once: the first domain to
   miss searches, the others wait for it and reuse its entry. *)
let engine_batch_plans_once () =
  let plan =
    Api.Plan
      {
        source = Api.Bench { name = "frac"; tile = Some 16 };
        opts = { Api.default_compile_opts with Api.plan = Api.Search };
        target = Api.default_target;
      }
  in
  let e = Engine.create ~jobs:8 () in
  match Engine.handle e (Api.Batch (List.init 8 (fun _ -> plan))) with
  | Api.Batch_reply (first :: _ as rs) ->
      Alcotest.(check int) "eight replies" 8 (List.length rs);
      List.iter
        (fun r ->
          Alcotest.(check string) "byte-identical replies" (render first)
            (render r))
        rs;
      let s = Engine.server_stats e in
      Alcotest.(check int) "planned once" 1 s.Api.plans_computed;
      Alcotest.(check int) "compiled once" 1 s.Api.compiles_computed;
      Alcotest.(check int) "one lookup per request" 8
        (s.Api.cache.Api.hits + s.Api.cache.Api.misses)
  | other -> Alcotest.failf "expected a batch reply: %s" (render other)

let engine_stats_and_failures () =
  let e = Engine.create ~jobs:1 () in
  (match
     Engine.handle e
       (Api.Compile
          {
            source = Api.Bench { name = "nope"; tile = None };
            opts = Api.default_compile_opts;
            target = Api.default_target;
          })
   with
  | Api.Failed d ->
      Alcotest.(check string) "cli phase" "cli" d.Obs.Diagnostic.phase
  | _ -> Alcotest.fail "unknown benchmark must fail");
  (match
     Engine.handle e
       (Api.Compile
          {
            source = source_ep;
            opts = { Api.default_compile_opts with Api.level = "c9" };
            target = Api.default_target;
          })
   with
  | Api.Failed _ -> ()
  | _ -> Alcotest.fail "unknown level must fail");
  (* a non-positive processor count fails typed instead of raising out
     of the SPMD executor *)
  List.iter
    (fun procs ->
      match
        Engine.handle e
          (Api.Run
             {
               source = source_ep;
               opts = Api.default_compile_opts;
               target = { Api.default_target with Api.procs };
               spmd = true;
               native = false;
             })
      with
      | Api.Failed d ->
          Alcotest.(check string) "procs failure is a cli error" "cli"
            d.Obs.Diagnostic.phase
      | _ -> Alcotest.failf "procs = %d must fail" procs)
    [ 0; -4 ];
  match Engine.handle e Api.Stats with
  | Api.Stats_reply s ->
      Alcotest.(check int)
        "both failures counted as compile requests" 2
        (List.assoc Metrics.request_compile s.Api.requests);
      Alcotest.(check int) "stats request counted once" 1
        (List.assoc Metrics.request_stats s.Api.requests)
  | _ -> Alcotest.fail "expected a stats reply"

let engine_mirrors_obs () =
  let r = Obs.create () in
  let e = Engine.create ~jobs:1 () in
  Obs.run r (fun () ->
      ignore (Engine.handle e greedy_run);
      ignore (Engine.handle e greedy_run));
  let counters = (Obs.report r).Obs.counters in
  let get k = Option.value ~default:0 (List.assoc_opt k counters) in
  Alcotest.(check int) "requests mirrored" 2 (get Metrics.request_run);
  Alcotest.(check int) "miss mirrored" 1 (get Metrics.cache_miss);
  Alcotest.(check int) "hit mirrored" 1 (get Metrics.cache_hit);
  Alcotest.(check int) "compile mirrored" 1 (get Metrics.compile_computed)

(* The planner's decisions, pinned: the exact reply line of a cold
   Plan{plan=ilp} for ep, frac, tomcatv and sp on the default target,
   and for frac and tomcatv at tile 16 on sp2 and paragon with 16
   processors (the communication model and two more cache
   geometries).  Every chosen plan, cost and provenance field is in
   these bytes.  Regenerate test/golden/plans.jsonl, one line per
   request in this order, from
     Obs.Json.to_string (Api.response_to_json (Engine.handle (Engine.create ()) req))
   only when a change is meant to move a plan. *)
let golden_plan_requests =
  let plan ?tile ?(machine = "t3e") ?(procs = 1) name =
    Api.Plan
      {
        source = Api.Bench { name; tile };
        opts = { Api.default_compile_opts with Api.plan = Api.Ilp };
        target = { Api.machine; procs };
      }
  in
  [
    plan "ep";
    plan "frac";
    plan "tomcatv";
    plan "sp";
    plan ~tile:16 ~machine:"sp2" ~procs:16 "frac";
    plan ~tile:16 ~machine:"sp2" ~procs:16 "tomcatv";
    plan ~tile:16 ~machine:"paragon" ~procs:16 "frac";
    plan ~tile:16 ~machine:"paragon" ~procs:16 "tomcatv";
  ]

let golden_plans () =
  let ic = open_in_bin "golden/plans.jsonl" in
  let want = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let want =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' want)
  in
  Alcotest.(check int) "line count" (List.length golden_plan_requests)
    (List.length want);
  List.iteri
    (fun i (req, w) ->
      let got =
        Obs.Json.to_string
          (Api.response_to_json (Engine.handle (Engine.create ()) req))
      in
      Alcotest.(check string) (Printf.sprintf "line %d" (i + 1)) w got)
    (List.combine golden_plan_requests want)

(* ------------------------------------------------------------------ *)
(* Server / client over a real socket                                  *)
(* ------------------------------------------------------------------ *)

let with_server f =
  let socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "zapd-test-%d-%d.sock" (Unix.getpid ()) (Random.int 10000))
  in
  let engine = Engine.create ~jobs:1 () in
  let ready = Atomic.make false in
  let server =
    Domain.spawn (fun () ->
        Service.Server.serve
          ~on_ready:(fun () -> Atomic.set ready true)
          ~socket engine)
  in
  while not (Atomic.get ready) do
    Domain.cpu_relax ()
  done;
  Fun.protect
    ~finally:(fun () ->
      (* always shut the daemon down, even when the test body failed *)
      (try ignore (Service.Client.roundtrip ~socket Api.Shutdown)
       with _ -> ());
      (match Domain.join server with
      | Ok () -> ()
      | Error d -> Alcotest.failf "server: %s" (Obs.Diagnostic.to_string d));
      Alcotest.(check bool)
        "socket file removed on shutdown" false (Sys.file_exists socket))
    (fun () -> f socket)

let socket_smoke () =
  with_server (fun socket ->
      (match Service.Client.roundtrip ~socket greedy_run with
      | Ok (Api.Ran _) -> ()
      | Ok _ -> Alcotest.fail "expected a Ran response"
      | Error d -> Alcotest.failf "run: %s" (Obs.Diagnostic.to_string d));
      (* replay: the daemon's cache must serve it *)
      (match Service.Client.roundtrip ~socket greedy_run with
      | Ok (Api.Ran _) -> ()
      | Ok _ -> Alcotest.fail "expected a Ran response"
      | Error d -> Alcotest.failf "run: %s" (Obs.Diagnostic.to_string d));
      match Service.Client.roundtrip ~socket Api.Stats with
      | Ok (Api.Stats_reply s) ->
          Alcotest.(check int) "replay hit the daemon cache" 1 s.Api.cache.Api.hits
      | Ok _ -> Alcotest.fail "expected a stats reply"
      | Error d -> Alcotest.failf "stats: %s" (Obs.Diagnostic.to_string d))

let socket_protocol_error () =
  with_server (fun socket ->
      (* raw connection so we can send malformed lines; each is answered
         with a typed failure on the same connection *)
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX socket);
      let oc = Unix.out_channel_of_descr fd in
      let ic = Unix.in_channel_of_descr fd in
      let procs_zero =
        Obs.Json.to_string
          (Api.request_to_json
             (Api.Run
                {
                  source = source_ep;
                  opts = Api.default_compile_opts;
                  target = { Api.default_target with Api.procs = 0 };
                  spmd = true;
                  native = false;
                }))
      in
      List.iter
        (fun (line, phase) ->
          output_string oc (line ^ "\n");
          flush oc;
          match
            Result.bind (Obs.Json.of_string (input_line ic)) Api.response_of_json
          with
          | Ok (Api.Failed d) ->
              Alcotest.(check string)
                (Printf.sprintf "%s phase for %S" phase
                   (String.sub line 0 (min 20 (String.length line))))
                phase d.Obs.Diagnostic.phase
          | Ok _ -> Alcotest.fail "expected a Failed response"
          | Error e -> Alcotest.failf "unparseable error reply: %s" e)
        [
          ("this is not json", "protocol");
          ({|{"op":"\uzzzz"}|}, "protocol");
          (deep_line, "protocol");
          (procs_zero, "cli");
        ];
      Unix.close fd;
      (* the bad lines did not kill the daemon *)
      match Service.Client.roundtrip ~socket Api.Stats with
      | Ok (Api.Stats_reply _) -> ()
      | Ok _ -> Alcotest.fail "expected a stats reply"
      | Error d -> Alcotest.failf "stats: %s" (Obs.Diagnostic.to_string d))

let zapd = "../bin/zapd.exe"

(* Run [f] against the real zapd, started as a child process, with a
   connection already open; then shut the daemon down, which must exit
   cleanly.  A daemon that dies fails the test instead of killing the
   test runner.  [f] gets the socket path, the open connection and a
   description of the child's state for failure messages. *)
let with_zapd name f =
  if Sys.file_exists zapd then begin
    let socket =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "zapd-%s-%d-%d.sock" name (Unix.getpid ())
           (Random.int 10000))
    in
    let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
    let pid =
      Unix.create_process zapd
        [| zapd; "--socket"; socket; "--quiet"; "--jobs"; "1" |]
        null null null
    in
    Unix.close null;
    let status () =
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> "running"
      | _, Unix.WEXITED c -> Printf.sprintf "exited with status %d" c
      | _, Unix.WSIGNALED n when n = Sys.sigpipe -> "killed by SIGPIPE"
      | _, Unix.WSIGNALED n -> Printf.sprintf "killed by signal %d" n
      | _, Unix.WSTOPPED n -> Printf.sprintf "stopped by signal %d" n
    in
    let connect () =
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.connect fd (Unix.ADDR_UNIX socket) with
      | () -> Some fd
      | exception Unix.Unix_error _ ->
          Unix.close fd;
          None
    in
    let finished = ref false in
    Fun.protect
      ~finally:(fun () ->
        if not !finished then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        end;
        try Sys.remove socket with Sys_error _ -> ())
      (fun () ->
        let rec await tries =
          match connect () with
          | Some fd -> fd
          | None when tries > 0 ->
              Unix.sleepf 0.05;
              await (tries - 1)
          | None -> Alcotest.failf "zapd did not come up (%s)" (status ())
        in
        f ~socket ~status (await 200);
        (match Service.Client.roundtrip ~socket Api.Shutdown with
        | Ok _ -> ()
        | Error d ->
            Alcotest.failf "shutdown: %s" (Obs.Diagnostic.to_string d));
        finished := true;
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> ()
        | _ -> Alcotest.fail "zapd did not exit cleanly after shutdown")
  end

let expect_stats ~socket ~status =
  match Service.Client.roundtrip ~socket Api.Stats with
  | Ok (Api.Stats_reply _) -> ()
  | Ok _ -> Alcotest.fail "expected a stats reply"
  | Error d ->
      Alcotest.failf "zapd %s: %s" (status ()) (Obs.Diagnostic.to_string d)

(* A client of another protocol version gets a protocol diagnostic that
   names both versions, on a connection that stays open: the next
   request on it, a Stats, is answered. *)
let zapd_names_both_versions () =
  with_zapd "version" (fun ~socket:_ ~status fd ->
      let oc = Unix.out_channel_of_descr fd in
      let ic = Unix.in_channel_of_descr fd in
      let send line =
        output_string oc (line ^ "\n");
        flush oc;
        match input_line ic with
        | reply -> Result.bind (Obs.Json.of_string reply) Api.response_of_json
        | exception End_of_file ->
            Alcotest.failf "connection closed without a reply (zapd %s)"
              (status ())
      in
      (match send {|{"op":"stats","v":999}|} with
      | Ok (Api.Failed d) ->
          Alcotest.(check string) "protocol phase" "protocol"
            d.Obs.Diagnostic.phase;
          Alcotest.(check string) "both versions named"
            "v: protocol version 999 requested, but this zapd speaks version 3"
            d.Obs.Diagnostic.message
      | Ok _ -> Alcotest.fail "expected a Failed response"
      | Error e -> Alcotest.failf "unparseable reply: %s" e);
      (match
         send (Obs.Json.to_string (Api.request_to_json Api.Stats))
       with
      | Ok (Api.Stats_reply _) -> ()
      | Ok _ -> Alcotest.fail "expected a stats reply"
      | Error e -> Alcotest.failf "unparseable reply: %s" e);
      Unix.close fd)

(* A client that hangs up before reading its reply must not take the
   daemon down: writing that reply raises SIGPIPE, which kills a
   process that does not ignore it. *)
let zapd_survives_hangup () =
  with_zapd "hangup" (fun ~socket ~status fd ->
      (* a slow cold plan, then hang up before the reply *)
      let line =
        {|{"op":"plan","source":{"bench":"frac"},"opts":{"plan":"ilp"}}|}
        ^ "\n"
      in
      ignore (Unix.write_substring fd line 0 (String.length line));
      Unix.close fd;
      expect_stats ~socket ~status)

(* A client that never sends a newline must not grow the daemon's
   memory without bound: the first byte past the cap is answered with
   a protocol diagnostic, that connection is closed, and the next
   client is served. *)
let zapd_caps_request_size () =
  with_zapd "cap" (fun ~socket ~status fd ->
      (* a daemon that hangs up early must fail this test, not kill the
         runner with SIGPIPE *)
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      let flood = Bytes.make (Service.Server.max_request_bytes + 1) 'x' in
      ignore (Unix.write fd flood 0 (Bytes.length flood));
      (match Unix.select [ fd ] [] [] 10.0 with
      | [], _, _ ->
          Alcotest.failf "no reply to an over-long line within 10 s (zapd %s)"
            (status ())
      | _ -> (
          let ic = Unix.in_channel_of_descr fd in
          match
            Result.bind (Obs.Json.of_string (input_line ic)) Api.response_of_json
          with
          | Ok (Api.Failed d) ->
              Alcotest.(check string) "protocol phase" "protocol"
                d.Obs.Diagnostic.phase;
              Alcotest.(check bool) "connection closed after the reply" true
                (match input_line ic with
                | exception End_of_file -> true
                | _ -> false)
          | Ok _ -> Alcotest.fail "expected a Failed response"
          | Error e -> Alcotest.failf "unparseable reply: %s" e
          | exception End_of_file ->
              Alcotest.failf "connection closed without a reply (zapd %s)"
                (status ())));
      Unix.close fd;
      expect_stats ~socket ~status;
      (* [zapc --connect] on a source past the cap gets the same
         diagnostic, not a broken pipe from a daemon that already hung
         up on a half-written line *)
      let text = String.make (Service.Server.max_request_bytes + 1) ' ' in
      (match
         Service.Client.roundtrip ~socket
           (Api.Compile
              {
                source = Api.Text { name = "big.zap"; text };
                opts = Api.default_compile_opts;
                target = Api.default_target;
              })
       with
      | Error d ->
          Alcotest.(check string) "client-side protocol phase" "protocol"
            d.Obs.Diagnostic.phase
      | Ok _ -> Alcotest.fail "an over-long source reached the daemon");
      expect_stats ~socket ~status)

let suites =
  [
    ( "service-fingerprint",
      [
        Alcotest.test_case "golden stability" `Quick fingerprint_golden;
        Alcotest.test_case "display name excluded" `Quick
          fingerprint_ignores_display_name;
        Alcotest.test_case "content sensitivity" `Quick fingerprint_sensitivity;
      ] );
    ( "service-metrics",
      [ Alcotest.test_case "keys collision-free" `Quick metrics_no_collision ]
    );
    ( "service-cache",
      [
        Alcotest.test_case "LRU eviction order" `Quick cache_lru_eviction_order;
        Alcotest.test_case "capacity bound" `Quick cache_capacity_bound;
        Alcotest.test_case "default capacity is exact" `Quick
          cache_default_capacity_exact;
        Alcotest.test_case "first writer wins" `Quick cache_first_writer_wins;
        Alcotest.test_case "hit/miss accounting" `Quick cache_hit_miss_counts;
        Alcotest.test_case "concurrent misses compute once" `Quick
          cache_single_flight;
      ] );
    ( "service-api",
      [
        Alcotest.test_case "request round-trip" `Quick request_roundtrip;
        Alcotest.test_case "response round-trip" `Quick response_roundtrip;
        Alcotest.test_case "wire round-trip" `Quick wire_roundtrip;
        Alcotest.test_case "wire golden bytes" `Quick wire_golden;
        Alcotest.test_case "bad input rejected" `Quick request_rejects_bad_input;
      ] );
    ( "service-engine",
      [
        Alcotest.test_case "cache hit matches cold compile" `Quick
          engine_cache_hit_matches_cold;
        Alcotest.test_case "dump_c and emit_c share one text" `Quick
          engine_one_c_text;
        Alcotest.test_case "warm search skips planning" `Slow
          engine_warm_search_skips_planning;
        Alcotest.test_case "batch deterministic at 1/2/8 domains" `Slow
          engine_batch_deterministic_across_domains;
        Alcotest.test_case "concurrent cold plans compute once" `Slow
          engine_batch_plans_once;
        Alcotest.test_case "failures and stats" `Quick engine_stats_and_failures;
        Alcotest.test_case "obs counters mirrored" `Quick engine_mirrors_obs;
        Alcotest.test_case "cold ILP plans match the golden" `Slow
          golden_plans;
      ] );
    ( "service-socket",
      [
        Alcotest.test_case "compile/stats/shutdown smoke" `Slow socket_smoke;
        Alcotest.test_case "protocol error keeps daemon alive" `Quick
          socket_protocol_error;
        Alcotest.test_case "zapd survives a client hang-up" `Quick
          zapd_survives_hangup;
        Alcotest.test_case "zapd caps the request size" `Quick
          zapd_caps_request_size;
        Alcotest.test_case "zapd names both protocol versions" `Quick
          zapd_names_both_versions;
      ] );
  ]
