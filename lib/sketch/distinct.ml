type t = { bits : int; seed : int; words : Bytes.t; mutable set_bits : int }

let create ~bits ~seed =
  if bits <= 0 then invalid_arg "Distinct.create: bits must be positive";
  { bits; seed; words = Bytes.make ((bits + 7) / 8) '\000'; set_bits = 0 }

let mix t x =
  let open Int64 in
  let z = of_int (x lxor (t.seed * 0x9E3779B9)) in
  let z = add z 0x9E3779B97F4A7C15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = logxor z (shift_right_logical z 27) in
  to_int (rem (logand z max_int) (of_int t.bits))

let add t x =
  let bit = mix t x in
  let byte = bit / 8 and mask = 1 lsl (bit mod 8) in
  let current = Char.code (Bytes.get t.words byte) in
  if current land mask = 0 then begin
    Bytes.set t.words byte (Char.chr (current lor mask));
    t.set_bits <- t.set_bits + 1
  end

let estimate t =
  let zeros = t.bits - t.set_bits in
  let b = float_of_int t.bits in
  if zeros = 0 then b *. Float.log b
  else -.b *. Float.log (float_of_int zeros /. b)

let reset t =
  Bytes.fill t.words 0 (Bytes.length t.words) '\000';
  t.set_bits <- 0
