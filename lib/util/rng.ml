(* This module is the tree's one blessed randomness source: dream-lint
   bans Stdlib.Random everywhere else, and here by policy declaration. *)
[@@@lint.allow "determinism-random"]

(* The xoshiro256** state: four 64-bit words in one 32-byte buffer, read
   and written unboxed.  Mutable int64 record fields would box a fresh
   Int64 on each of a draw's six state writes. *)
type t = Bytes.t

let[@inline] word t i = Bytes.get_int64_ne t (i lsl 3)

let[@inline] set_word t i v = Bytes.set_int64_ne t (i lsl 3) v

let of_words s0 s1 s2 s3 =
  let t = Bytes.create 32 in
  set_word t 0 s0;
  set_word t 1 s1;
  set_word t 2 s2;
  set_word t 3 s3;
  t

(* splitmix64: used only to expand the seed into the xoshiro state, as
   recommended by the xoshiro authors. *)
let splitmix64_next state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create seed =
  let state = ref (Int64.of_int seed) in
  let s0 = splitmix64_next state in
  let s1 = splitmix64_next state in
  let s2 = splitmix64_next state in
  let s3 = splitmix64_next state in
  of_words s0 s1 s2 s3

let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* Inlined into every sampler below, so a draw boxes nothing; only a
   caller of [bits64] itself receives a boxed Int64. *)
let[@inline] next t =
  let open Int64 in
  let s0 = word t 0 and s1 = word t 1 and s2 = word t 2 and s3 = word t 3 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  set_word t 0 (logxor s0 s3);
  set_word t 1 (logxor s1 s2);
  set_word t 2 (logxor s2 (shift_left s1 17));
  set_word t 3 (rotl s3 45);
  result

let bits64 t = next t

let split t =
  let seed = Int64.to_int (next t) land max_int in
  create seed

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection-free for our purposes: modulo bias is negligible because
     bounds are tiny relative to 2^62. *)
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  v mod bound

let float t bound =
  (* 53 random bits mapped to [0, 1). *)
  let v = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  bound *. (v *. 0x1.0p-53)

let exponential t mean =
  let u = 1.0 -. float t 1.0 in
  -. mean *. log u

(* The draws of [thin_jitter], [bernoulli] and [lognormal]: [float t 1.0]
   and a Box-Muller standard normal over it, inlined so no float crosses
   a call boxed.  The bound is left out of the first: [1.0 *. x] is
   exactly [x]. *)
let[@inline] unit_draw t = Int64.to_float (Int64.shift_right_logical (next t) 11) *. 0x1.0p-53

let[@inline] gaussian_draw t =
  let u1 = unit_draw t +. 1e-12 and u2 = unit_draw t in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

(* [Float.max 0.0 (v *. (1.0 +. stddev *. g))]: a NaN stays, anything not
   above zero becomes [+0.0]. *)
let[@inline] jitter t ~stddev v =
  let x = v *. (1.0 +. (stddev *. gaussian_draw t)) in
  if x <= 0.0 then 0.0 else x

(* Entries [0 .. i-1] are drawn, and [kept] of them survive, closed up
   in order at the front. *)
let rec thin_from t ~loss ~stddev ~keys ~vols n i kept =
  if i >= n then kept
  else if loss > 0.0 && unit_draw t < loss then thin_from t ~loss ~stddev ~keys ~vols n (i + 1) kept
  else begin
    let v = vols.(i) in
    keys.(kept) <- keys.(i);
    vols.(kept) <- (if stddev <= 0.0 then v else jitter t ~stddev v);
    thin_from t ~loss ~stddev ~keys ~vols n (i + 1) (kept + 1)
  end

let[@hot] thin_jitter t ~loss ~stddev ~keys ~vols n = thin_from t ~loss ~stddev ~keys ~vols n 0 0

(* [float t 1.0 < p], and [scale *. exp (mu +. (sigma *. g))] for a
   standard normal [g] written into its cell, over the inlined draws above,
   so neither boxes a float. *)
let bernoulli t p = unit_draw t < p

let lognormal_into t ~mu ~sigma ~scale dst i =
  dst.(i) <- scale *. exp (mu +. (sigma *. gaussian_draw t))

let pareto t ~alpha ~xmin =
  let u = 1.0 -. float t 1.0 in
  xmin /. (u ** (1.0 /. alpha))

(* The rejection-method helpers live at top level so [zipf] builds no
   closures per draw (it runs once per emitted packet on the generator's
   hot path). *)
let zipf_h ~s x = (x ** (1.0 -. s)) /. (1.0 -. s)
let zipf_h_inv ~s x = ((1.0 -. s) *. x) ** (1.0 /. (1.0 -. s))

let rec zipf_loop t ~s ~nf ~hx0 ~hn =
  let u = hx0 +. (float t 1.0 *. (hn -. hx0)) in
  let x = zipf_h_inv ~s u in
  let k = Float.round x in
  let k = if k < 1.0 then 1.0 else if k > nf then nf else k in
  if k -. x <= 0.5 || u >= zipf_h ~s (k +. 0.5) -. (k ** -.s) then int_of_float k
  else zipf_loop t ~s ~nf ~hx0 ~hn

let zipf t ~n ~s =
  if n <= 0 then invalid_arg "Rng.zipf: n must be positive";
  if n = 1 then 1
  else begin
    (* Rejection method of Devroye; works for s > 0, s <> 1 handled by the
       generalised inverse. *)
    let s = if Float.abs (s -. 1.0) < 1e-9 then 1.000001 else s in
    let nf = Float.of_int n in
    let hx0 = zipf_h ~s 0.5 -. 1.0 in
    let hn = zipf_h ~s (nf +. 0.5) in
    zipf_loop t ~s ~nf ~hx0 ~hn
  end

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

let codec name =
  let open Codec in
  let line i = field (int64 (name ^ string_of_int i)) (fun t -> word t i) in
  record
    (let+ s0 = line 0 and+ s1 = line 1 and+ s2 = line 2 and+ s3 = line 3 in
     of_words s0 s1 s2 s3)
