(* The retired per-counter fault loop of a switch's fetch, kept as the
   differential oracle for the column pass Dream_util.Rng.thin_jitter (which
   Fault_model.degrade runs on a switch's data stream): one
   [lose_counter] draw per reading, then one [perturb] draw per survivor,
   each through the public [Rng.bernoulli] / [Rng.float].  Only the
   tests use it. *)

module Rng = Dream_util.Rng

(* A standard normal variate by Box-Muller, term for term as the library
   draws it inside [thin_jitter] and [lognormal_into]. *)
let gaussian rng =
  let u1 = Rng.float rng 1.0 +. 1e-12 and u2 = Rng.float rng 1.0 in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

let lose_counter rng ~loss = loss > 0.0 && Rng.bernoulli rng loss

let perturb rng ~stddev v =
  if stddev <= 0.0 then v else Float.max 0.0 (v *. (1.0 +. (stddev *. gaussian rng)))

(* Survivors close up in place, in key order. *)
let thin_jitter rng ~loss ~stddev ~keys ~vols n =
  let kept = ref 0 in
  for i = 0 to n - 1 do
    if not (lose_counter rng ~loss) then begin
      keys.(!kept) <- keys.(i);
      vols.(!kept) <- perturb rng ~stddev vols.(i);
      incr kept
    end
  done;
  !kept
