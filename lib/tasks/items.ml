type t = {
  mutable keys : int array;
  mutable mags : float array;
  mutable vals : float array;
  mutable n : int;
  values : bool;
}

let create ?(values = false) () = { keys = [||]; mags = [||]; vals = [||]; n = 0; values }

let length t = t.n

let clear t = t.n <- 0

(* Int columns are copied element by element: a store of an immediate
   needs no write barrier, where Array.blit would run one per element into
   a major-heap array. *)
let[@alloc.allow "growth only: recycled storage keeps its room across tasks"] reserve t cap =
  if cap > Array.length t.keys then begin
    let cap = max cap (2 * Array.length t.keys) in
    let keys = Array.make cap 0 in
    for i = 0 to t.n - 1 do
      keys.(i) <- t.keys.(i)
    done;
    let mags = Array.make cap 0.0 in
    Array.blit t.mags 0 mags 0 t.n;
    t.keys <- keys;
    t.mags <- mags;
    if t.values then begin
      let vals = Array.make cap 0.0 in
      Array.blit t.vals 0 vals 0 t.n;
      t.vals <- vals
    end
  end

let rotate t start =
  let last = t.n - 1 in
  if start < last then begin
    let key = t.keys.(last) and mag = t.mags.(last) in
    for i = last downto start + 1 do
      t.keys.(i) <- t.keys.(i - 1)
    done;
    Array.blit t.mags start t.mags (start + 1) (last - start);
    t.keys.(start) <- key;
    t.mags.(start) <- mag;
    if t.values then begin
      let value = t.vals.(last) in
      Array.blit t.vals start t.vals (start + 1) (last - start);
      t.vals.(start) <- value
    end
  end

let rec count_common a b i j acc =
  if i >= a.n || j >= b.n then acc
  else begin
    let ka = a.keys.(i) and kb = b.keys.(j) in
    if ka < kb then count_common a b (i + 1) j acc
    else if ka > kb then count_common a b i (j + 1) acc
    else count_common a b (i + 1) (j + 1) (acc + 1)
  end

let common a b = count_common a b 0 0 0

let of_keys keys =
  let sorted = List.sort_uniq Int.compare keys in
  let t = create () in
  reserve t (List.length sorted);
  List.iteri (fun i key -> t.keys.(i) <- key) sorted;
  t.n <- List.length sorted;
  t
