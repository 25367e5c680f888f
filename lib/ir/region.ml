type range = { lo : int; hi : int }
type t = range array

let of_bounds = function
  | [] -> invalid_arg "Region.of_bounds: rank-0 region"
  | bs -> Array.of_list (List.map (fun (lo, hi) -> { lo; hi }) bs)

let rank = Array.length
let range r i = r.(i - 1)
let extent r i =
  let { lo; hi } = r.(i - 1) in
  if hi < lo then 0 else hi - lo + 1

let volume r =
  Array.fold_left (fun acc { lo; hi } -> acc * max 0 (hi - lo + 1)) 1 r

let is_empty r = Array.exists (fun { lo; hi } -> hi < lo) r
let equal (a : t) (b : t) = a = b

let shift r d =
  if Support.Vec.rank d <> Array.length r then
    invalid_arg "Region.shift: rank mismatch";
  Array.mapi (fun i { lo; hi } -> { lo = lo + d.(i); hi = hi + d.(i) }) r

let contains outer inner =
  Array.length outer = Array.length inner
  && (is_empty inner
     || Array.for_all2
          (fun o i -> o.lo <= i.lo && i.hi <= o.hi)
          outer inner)

let inter a b =
  if Array.length a <> Array.length b then
    invalid_arg "Region.inter: rank mismatch";
  let r =
    Array.map2 (fun x y -> { lo = max x.lo y.lo; hi = min x.hi y.hi }) a b
  in
  if is_empty r then None else Some r

let iter r f =
  if not (is_empty r) then begin
    let n = Array.length r in
    let idx = Array.map (fun { lo; _ } -> lo) r in
    let rec go d =
      if d = n then f idx
      else
        let { lo; hi } = r.(d) in
        for v = lo to hi do
          idx.(d) <- v;
          go (d + 1)
        done
    in
    go 0
  end

let pp ppf r =
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
       (fun ppf { lo; hi } -> Format.fprintf ppf "%d..%d" lo hi))
    (Array.to_list r)

let to_string r = Format.asprintf "%a" pp r
