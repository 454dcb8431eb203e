(* The generic binary max-heap the monitor's divide phase used before it
   moved to an unboxed heap of its own (Dream_tasks.Monitor): the boxed
   reference monitor still runs on it, and the unboxed heap moves its
   entries in exactly this order, so equal scores pop alike.  Only the
   tests use it. *)

type 'a t = { cmp : 'a -> 'a -> int; mutable data : 'a array; mutable size : int }

let create ~cmp = { cmp; data = [||]; size = 0 }

let length t = t.size

let is_empty t = t.size = 0

let grow t x =
  let cap = Array.length t.data in
  if t.size = cap then begin
    let ncap = if cap = 0 then 8 else cap * 2 in
    let ndata = Array.make ncap x in
    Array.blit t.data 0 ndata 0 t.size;
    t.data <- ndata
  end

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.cmp t.data.(i) t.data.(parent) > 0 then begin
      let tmp = t.data.(i) in
      t.data.(i) <- t.data.(parent);
      t.data.(parent) <- tmp;
      sift_up t parent
    end
  end

let push t x =
  grow t x;
  t.data.(t.size) <- x;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let peek t = if t.size = 0 then None else Some t.data.(0)

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let largest = if l < t.size && t.cmp t.data.(l) t.data.(i) > 0 then l else i in
  let largest = if r < t.size && t.cmp t.data.(r) t.data.(largest) > 0 then r else largest in
  if largest <> i then begin
    let tmp = t.data.(i) in
    t.data.(i) <- t.data.(largest);
    t.data.(largest) <- tmp;
    sift_down t largest
  end

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.data.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.data.(0) <- t.data.(t.size);
      sift_down t 0
    end;
    Some top
  end

let of_list ~cmp xs =
  let t = create ~cmp in
  List.iter (push t) xs;
  t

let to_list t = Array.to_list (Array.sub t.data 0 t.size)
