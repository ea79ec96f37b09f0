(* Longest Processing Time list scheduling: jobs in non-increasing size
   order, each placed on the currently least-loaded bin. Splits a class
   into sub-classes for the heterogeneous extension. A simple linear scan
   for the minimum keeps this O(n k); the instances here have small k, so
   no heap is needed. *)

(* [split ~bins jobs] takes (job, size) pairs, returns an array of bins,
   each a (reversed placement order) list of (job, size), plus bin loads. *)
let split ~bins jobs =
  if bins <= 0 then invalid_arg "Lpt.split";
  let content = Array.make bins [] in
  let load = Array.make bins 0 in
  List.iter
    (fun (j, p) ->
      let best = ref 0 in
      for k = 1 to bins - 1 do
        if load.(k) < load.(!best) then best := k
      done;
      content.(!best) <- (j, p) :: content.(!best);
      load.(!best) <- load.(!best) + p)
    (List.stable_sort (fun (_, a) (_, b) -> compare b a) jobs);
  (content, load)
