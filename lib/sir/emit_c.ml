(* The one C printer: a complete, runnable translation unit equivalent
   to the scalar IR, with one function per fused cluster. *)

let header =
  {|#include <stdio.h>
#include <stdint.h>
#include <string.h>
#include <math.h>
#include <time.h>

/* bit-exact port of Ir.Expr.hashrand (splitmix64 over the double's
   bit pattern, every NaN as NAN's, top 53 bits to (0,1)); inline, or
   cc keeps it an out-of-line call in clusters that use it often (ep at
   baseline) */
static inline double hashrand(double x) {
  uint64_t z;
  if (x != x) z = 0x7FF8000000000000ULL;
  else memcpy(&z, &x, 8);
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z = z ^ (z >> 31);
  return ((double)(z >> 11) + 0.5) * (1.0 / 9007199254740992.0);
}

/* bit-exact port of Ir.Expr.fmin/fmax: NaN-propagating, left-biased
   on ties (so signed zeros resolve as in the interpreters).  libm's
   fmin/fmax return the non-NaN operand and must not be used here. */
static inline double zap_min(double x, double y) {
  return (x != x || y != y) ? NAN : (x <= y ? x : y);
}
static inline double zap_max(double x, double y) {
  return (x != x || y != y) ? NAN : (x >= y ? x : y);
}

static uint64_t digest = 0;
static void mix(double v) {
  uint64_t bits;
  /* canonicalize NaN payloads, as Exec.Interp.Digest.mix does */
  if (v != v) bits = 0x7FF8000000000000ULL;
  else memcpy(&bits, &v, 8);
  digest = digest * 6364136223846793005ULL
         + (bits ^ 1442695040888963407ULL);
}

/* each fused cluster stays its own function: inlined into main, its
   loop nest could be merged with its neighbours' by the compiler, and
   the runner would no longer measure the plan's partition */
#ifdef __GNUC__
#define NOINLINE __attribute__((noinline))
#else
#define NOINLINE
#endif
|}

(* accessor macro name for an array *)
let acc name = "AT_" ^ name

(* user scalars and loop variables are prefixed so they can never
   collide with libc/libm symbols (e.g. a config named "gamma") *)
let m name = "v_" ^ name

let collect_loop_vars (body : Code.stmt list) =
  let seen = Hashtbl.create 16 in
  let rec go = function
    | Code.For { var; body; _ } ->
        Hashtbl.replace seen var ();
        List.iter go body
    | Code.Sassign _ | Code.Store _ -> ()
  in
  List.iter go body;
  Hashtbl.fold (fun v () acc -> v :: acc) seen [] |> List.sort compare

let pp_subscripts ppf (subs : Code.subscript array) =
  Format.fprintf ppf "(%s)"
    (String.concat ", "
       (Array.to_list subs
       |> List.map (fun (s : Code.subscript) ->
              if s.Code.base = "" then string_of_int s.Code.off
              else if s.Code.off = 0 then m s.Code.base
              else Printf.sprintf "%s %+d" (m s.Code.base) s.Code.off)))

let rec pp_expr loopvars ppf (e : Code.expr) =
  let pe = pp_expr loopvars in
  match e with
  | Code.Const f ->
      (* %h round-trips finite doubles exactly *)
      if f = Float.infinity then Format.pp_print_string ppf "INFINITY"
      else if f = Float.neg_infinity then
        Format.pp_print_string ppf "(-INFINITY)"
      else if Float.is_nan f then Format.pp_print_string ppf "NAN"
      else if Float.is_integer f && Float.abs f < 1e15 then
        Format.fprintf ppf "%.1f" f
      else Format.fprintf ppf "%h" f
  | Code.Scalar s ->
      if List.mem s loopvars then Format.fprintf ppf "((double)%s)" (m s)
      else Format.pp_print_string ppf (m s)
  | Code.Load (x, subs) -> Format.fprintf ppf "%s%a" (acc x) pp_subscripts subs
  | Code.Unop (op, a) -> (
      match op with
      | Ir.Expr.Neg -> Format.fprintf ppf "(-(%a))" pe a
      | Ir.Expr.Not -> Format.fprintf ppf "((double)((%a) == 0.0))" pe a
      | Ir.Expr.Sqrt -> Format.fprintf ppf "sqrt(%a)" pe a
      | Ir.Expr.Exp -> Format.fprintf ppf "exp(%a)" pe a
      | Ir.Expr.Log -> Format.fprintf ppf "log(%a)" pe a
      | Ir.Expr.Sin -> Format.fprintf ppf "sin(%a)" pe a
      | Ir.Expr.Cos -> Format.fprintf ppf "cos(%a)" pe a
      | Ir.Expr.Abs -> Format.fprintf ppf "fabs(%a)" pe a
      | Ir.Expr.Floor -> Format.fprintf ppf "floor(%a)" pe a
      | Ir.Expr.Hashrand -> Format.fprintf ppf "hashrand(%a)" pe a)
  | Code.Binop (op, a, b) -> (
      match op with
      | Ir.Expr.Add -> Format.fprintf ppf "(%a + %a)" pe a pe b
      | Ir.Expr.Sub -> Format.fprintf ppf "(%a - %a)" pe a pe b
      | Ir.Expr.Mul -> Format.fprintf ppf "(%a * %a)" pe a pe b
      | Ir.Expr.Div -> Format.fprintf ppf "(%a / %a)" pe a pe b
      | Ir.Expr.Pow -> Format.fprintf ppf "pow(%a, %a)" pe a pe b
      | Ir.Expr.Min -> Format.fprintf ppf "zap_min(%a, %a)" pe a pe b
      | Ir.Expr.Max -> Format.fprintf ppf "zap_max(%a, %a)" pe a pe b
      | Ir.Expr.Lt -> Format.fprintf ppf "((double)(%a < %a))" pe a pe b
      | Ir.Expr.Le -> Format.fprintf ppf "((double)(%a <= %a))" pe a pe b
      | Ir.Expr.Gt -> Format.fprintf ppf "((double)(%a > %a))" pe a pe b
      | Ir.Expr.Ge -> Format.fprintf ppf "((double)(%a >= %a))" pe a pe b
      | Ir.Expr.Eq -> Format.fprintf ppf "((double)(%a == %a))" pe a pe b
      | Ir.Expr.Ne -> Format.fprintf ppf "((double)(%a != %a))" pe a pe b
      | Ir.Expr.And ->
          Format.fprintf ppf "((double)((%a != 0.0) && (%a != 0.0)))" pe a pe b
      | Ir.Expr.Or ->
          Format.fprintf ppf "((double)((%a != 0.0) || (%a != 0.0)))" pe a pe b)
  | Code.Select (c, a, b) ->
      Format.fprintf ppf "((%a != 0.0) ? %a : %a)" pe c pe a pe b

let rec pp_stmt loopvars indent ppf (s : Code.stmt) =
  let pad = String.make indent ' ' in
  match s with
  | Code.Sassign (x, e) ->
      Format.fprintf ppf "%s%s = %a;@," pad (m x) (pp_expr loopvars) e
  | Code.Store (x, subs, e) ->
      Format.fprintf ppf "%s%s%a = %a;@," pad (acc x) pp_subscripts subs
        (pp_expr loopvars) e
  | Code.For { var; lo; hi; step; body } ->
      let var = m var in
      if step >= 0 then
        Format.fprintf ppf "%sfor (%s = %d; %s <= %d; %s++) {@," pad var lo var
          hi var
      else
        Format.fprintf ppf "%sfor (%s = %d; %s >= %d; %s--) {@," pad var hi var
          lo var;
      List.iter (pp_stmt loopvars (indent + 2) ppf) body;
      Format.fprintf ppf "%s}@," pad

(* accessor macro for an alloc: parameter list and flat-index body *)
let acc_macro (a : Code.alloc) =
  let n = Array.length a.Code.dims in
  let strides = Array.make n 1 in
  for d = n - 2 downto 0 do
    let lo, hi = a.Code.dims.(d + 1) in
    strides.(d) <- strides.(d + 1) * max 0 (hi - lo + 1)
  done;
  let params = List.init n (fun i -> Printf.sprintf "i%d" (i + 1)) in
  let index =
    String.concat " + "
      (List.mapi
         (fun d pname ->
           let lo, _ = a.Code.dims.(d) in
           Printf.sprintf "((%s) - (%d)) * %d" pname lo strides.(d))
         params)
  in
  (String.concat ", " params, index)

(* A fused cluster, in the scalarized code, is an outermost loop nest
   together with the scalar assignments that immediately precede it
   (reduction-accumulator initializations and the like).  A trailing
   run of scalar statements after the last nest forms one final
   cluster of its own. *)
let clusters_of_body (body : Code.stmt list) =
  let rec go pending chunks = function
    | [] ->
        let chunks =
          if pending = [] then chunks else List.rev pending :: chunks
        in
        List.rev chunks
    | (Code.For _ as s) :: tl -> go [] (List.rev (s :: pending) :: chunks) tl
    | s :: tl -> go (s :: pending) chunks tl
  in
  go [] [] body

let cluster_count (p : Code.program) = List.length (clusters_of_body p.Code.body)

let pp_cluster ppf k body =
  let loopvars = collect_loop_vars body in
  Format.fprintf ppf "@,static NOINLINE void cluster_%d(void) {@," k;
  if loopvars <> [] then
    Format.fprintf ppf "  long %s;@," (String.concat ", " (List.map m loopvars));
  List.iter (pp_stmt loopvars 2 ppf) body;
  Format.fprintf ppf "}@,"

let emit ppf (p : Code.program) =
  let clusters = clusters_of_body p.Code.body in
  Format.fprintf ppf "@[<v>/* generated from %s */@,%s@," p.Code.name header;
  (* external linkage, so cc keeps every store and folds no scalar *)
  List.iter
    (fun (a : Code.alloc) ->
      let params, index = acc_macro a in
      Format.fprintf ppf "double %s_[%d];@,#define %s(%s) %s_[%s]@,"
        a.Code.name
        (max 1 (Code.alloc_volume a))
        (acc a.Code.name) params a.Code.name index)
    p.Code.allocs;
  List.iter
    (fun (s, v) -> Format.fprintf ppf "double %s = %h;@," (m s) v)
    p.Code.scalars;
  List.iteri (pp_cluster ppf) clusters;
  (* main's locals end in no underscore, so no array's storage
     ([<name>_]) can be shadowed by one *)
  Format.fprintf ppf "@,int main(void) {@,";
  Format.fprintf ppf "  struct timespec t0, t1;@,";
  Format.fprintf ppf "  clock_gettime(CLOCK_MONOTONIC, &t0);@,";
  List.iteri (fun k _ -> Format.fprintf ppf "  cluster_%d();@," k) clusters;
  Format.fprintf ppf "  clock_gettime(CLOCK_MONOTONIC, &t1);@,";
  Format.fprintf ppf
    "  long long ns = (long long)(t1.tv_sec - t0.tv_sec) * 1000000000LL@,\
    \                + (t1.tv_nsec - t0.tv_nsec);@,";
  (* digest of the live-out set, exactly as Exec.Interp.checksum *)
  List.iter
    (fun out ->
      match
        List.find_opt (fun (a : Code.alloc) -> a.Code.name = out) p.Code.allocs
      with
      | Some a ->
          Format.fprintf ppf
            "  for (long k = 0; k < %d; k++) mix(%s_[k]);@,"
            (max 1 (Code.alloc_volume a))
            a.Code.name
      | None -> Format.fprintf ppf "  mix(%s);@," (m out))
    p.Code.live_out;
  Format.fprintf ppf
    "  printf(\"%%016llx %%lld\\n\", (unsigned long long)digest, ns);@,";
  Format.fprintf ppf "  return 0;@,}@]@."

let to_string p = Format.asprintf "%a" emit p
