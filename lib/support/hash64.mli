(** A 64-bit incremental mixer: the digest algebra shared by every
    checksum in the repo.

    [Exec.Interp.Digest] (the live-out checksum of all executors, and
    the mixing the emitted C reproduces bit for bit) and
    [Ir.Prog.fingerprint] (the content address of a normalized
    program, the key of the zapd plan cache) both fold their input
    through exactly this function — an LCG step over the running state
    with the new value XOR-folded in:

    [mix d b = d * 6364136223846793005 + (b lxor 1442695040888963407)]

    Floats mix by IEEE-754 bit pattern with every NaN canonicalized to
    the quiet NaN [0x7FF8000000000000]: payloads are not semantically
    observable and legitimately differ between backends (OCaml's [**]
    and libm's [pow] produce different NaN bits), so mixing raw bits
    would make equal values hash unequal. *)

type t = int64

val empty : t

val canonical_nan : int64
(** [0x7FF8000000000000], the bits every NaN mixes as: C's [NAN]. *)

val mix_bits : t -> int64 -> t
(** The raw step; all other [mix_*] reduce to it. *)

val mix_float : t -> float -> t
(** Mix the IEEE-754 bits, NaN-canonicalized (see above). *)

val mix_float_array : t -> float array -> t
(** [Array.fold_left mix_float], bit for bit, NaNs canonicalized alike.
    One loop that allocates nothing and calls nothing per element: it
    reads each element's bit pattern straight from the array and tests
    it for NaN on the bits.  Its time is the serial multiply-add chain
    of [mix_bits], one step per element. *)

val mix_int : t -> int -> t

val mix_string : t -> string -> t
(** Length-prefixed, so [mix_string (mix_string d "a") "bc"] differs
    from [mix_string (mix_string d "ab") "c"]. *)

val to_hex : t -> string
(** 16 lowercase hex digits. *)
