(* The single authority for every Obs counter key the service layer
   emits.  Counter names elsewhere in the repo grew as ad-hoc string
   literals at the emission site; for the service/cache family the
   literals live here and only here, so a typo cannot silently split
   one logical counter into two, and a unit test can assert the key
   set is collision-free (against itself and against the pre-seeded
   optimizer counters). *)

let prefix = "service."

(* request dispatch, one per Api.request constructor *)
let request_compile = "service.request.compile"
let request_run = "service.request.run"
let request_plan = "service.request.plan"
let request_stats = "service.request.stats"
let request_shutdown = "service.request.shutdown"

(* plan cache *)
let cache_hit = "service.cache.hit"
let cache_miss = "service.cache.miss"
let cache_eviction = "service.cache.eviction"
let cache_insertion = "service.cache.insertion"

(* cold work actually performed (a hit performs neither) *)
let compile_computed = "service.compile.computed"
let plan_computed = "service.plan.computed"

(* native artifact cache: a build is a cold cc compile+link, a reuse
   is an artifact served from the per-plan slot, the store memo, or
   adopted from disk; a run is one execution of a runner *)
let native_build = "service.native.build"
let native_reuse = "service.native.reuse"
let native_run = "service.native.run"

(* protocol-level failures (undecodable request lines) *)
let protocol_error = "service.protocol.error"

let requests =
  [
    request_compile;
    request_run;
    request_plan;
    request_stats;
    request_shutdown;
  ]

let cache = [ cache_hit; cache_miss; cache_eviction; cache_insertion ]

let all =
  requests @ cache
  @ [
      compile_computed;
      plan_computed;
      native_build;
      native_reuse;
      native_run;
      protocol_error;
    ]
