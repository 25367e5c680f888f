(* The single authority for every Obs counter key the lazy frontend
   emits — the same discipline Service.Metrics established for the
   "service.*" family: literals live here and only here, so a typo
   cannot silently split one logical counter into two, and a unit test
   asserts the key set is collision-free (against itself and against
   the service keys). *)

let prefix = "lazy."

let flush = "lazy.flush"
let op_recorded = "lazy.op.recorded"
let op_lowered = "lazy.op.lowered"
let op_elided = "lazy.op.elided"
let op_forwarded = "lazy.op.forwarded"
let param_lifted = "lazy.param.lifted"
let force = "lazy.force"
let force_memo = "lazy.force.memo"

let all =
  [
    flush;
    op_recorded;
    op_lowered;
    op_elided;
    op_forwarded;
    param_lifted;
    force;
    force_memo;
  ]
