(* Unit and property tests for the data-flow substrate: bitsets,
   union-find, orders, dominance, loops, liveness. *)

module Bitset = Dataflow.Bitset
module Union_find = Dataflow.Union_find
module Cfg = Iloc.Cfg

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

(* --- bitsets --- *)

let bitset_unit =
  [
    tc "add/mem/remove" (fun () ->
        let s = Bitset.create 70 in
        Bitset.add s 0;
        Bitset.add s 69;
        Bitset.add s 8;
        check Alcotest.bool "mem 0" true (Bitset.mem s 0);
        check Alcotest.bool "mem 69" true (Bitset.mem s 69);
        check Alcotest.bool "mem 1" false (Bitset.mem s 1);
        Bitset.remove s 8;
        check Alcotest.bool "removed" false (Bitset.mem s 8);
        check Alcotest.int "cardinal" 2 (Bitset.cardinal s));
    tc "bounds checked" (fun () ->
        let s = Bitset.create 8 in
        (try
           Bitset.add s 8;
           Alcotest.fail "out of bounds accepted"
         with Invalid_argument _ -> ());
        try
          ignore (Bitset.mem s (-1));
          Alcotest.fail "negative accepted"
        with Invalid_argument _ -> ());
    tc "set operations" (fun () ->
        let a = Bitset.of_list 16 [ 1; 2; 3 ] in
        let b = Bitset.of_list 16 [ 3; 4 ] in
        let u = Bitset.copy a in
        check Alcotest.bool "union changed" true (Bitset.union_into ~dst:u b);
        check (Alcotest.list Alcotest.int) "union" [ 1; 2; 3; 4 ]
          (Bitset.elements u);
        check Alcotest.bool "union idempotent" false
          (Bitset.union_into ~dst:u b);
        let i = Bitset.copy a in
        ignore (Bitset.inter_into ~dst:i b);
        check (Alcotest.list Alcotest.int) "inter" [ 3 ] (Bitset.elements i);
        let d = Bitset.copy a in
        ignore (Bitset.diff_into ~dst:d b);
        check (Alcotest.list Alcotest.int) "diff" [ 1; 2 ] (Bitset.elements d));
    tc "capacity mismatch rejected" (fun () ->
        let a = Bitset.create 8 and b = Bitset.create 16 in
        try
          ignore (Bitset.union_into ~dst:a b);
          Alcotest.fail "capacity mismatch accepted"
        with Invalid_argument _ -> ());
    tc "iter order ascending" (fun () ->
        let s = Bitset.of_list 64 [ 63; 0; 17; 32 ] in
        check (Alcotest.list Alcotest.int) "elements" [ 0; 17; 32; 63 ]
          (Bitset.elements s));
  ]

(* qcheck: bitsets behave like reference integer sets *)
module IntSet = Set.Make (Int)

let ops_gen =
  QCheck.Gen.(
    list_size (int_bound 60)
      (pair (int_bound 2) (int_bound 49) (* op, idx *)))

let bitset_prop =
  QCheck.Test.make ~count:300 ~name:"bitset matches reference set"
    (QCheck.make ops_gen)
    (fun ops ->
      let s = Bitset.create 50 in
      let model = ref IntSet.empty in
      List.iter
        (fun (op, i) ->
          match op with
          | 0 ->
              Bitset.add s i;
              model := IntSet.add i !model
          | 1 ->
              Bitset.remove s i;
              model := IntSet.remove i !model
          | _ ->
              if Bitset.mem s i <> IntSet.mem i !model then
                QCheck.Test.fail_report "mem mismatch")
        ops;
      Bitset.elements s = IntSet.elements !model
      && Bitset.cardinal s = IntSet.cardinal !model)

let bitset_binop_prop =
  QCheck.Test.make ~count:300 ~name:"bitset union/inter/diff match reference"
    QCheck.(pair (list_of_size (Gen.int_bound 30) (int_bound 49))
              (list_of_size (Gen.int_bound 30) (int_bound 49)))
    (fun (la, lb) ->
      let a = Bitset.of_list 50 la and b = Bitset.of_list 50 lb in
      let sa = IntSet.of_list la and sb = IntSet.of_list lb in
      let test into set_op =
        let d = Bitset.copy a in
        ignore (into ~dst:d b);
        Bitset.elements d = IntSet.elements (set_op sa sb)
      in
      test Bitset.union_into IntSet.union
      && test Bitset.inter_into IntSet.inter
      && test Bitset.diff_into IntSet.diff)

(* The word-parallel loops must behave identically right at the byte and
   word boundaries: capacity 0 (no words), 1, 63/64/65 (one word and one
   bit either side), and a multi-word size whose last word is partial. *)
let edge_caps = [| 0; 1; 63; 64; 65; 127; 128; 200 |]

let bitset_edge_prop =
  QCheck.Test.make ~count:500
    ~name:"bitset matches reference at word-boundary capacities"
    (QCheck.make
       QCheck.Gen.(
         pair
           (int_bound (Array.length edge_caps - 1))
           (list_size (int_bound 80) (pair (int_bound 3) (int_bound 1000)))))
    (fun (ci, ops) ->
      let cap = edge_caps.(ci) in
      let s = Bitset.create cap in
      let model = ref IntSet.empty in
      List.iter
        (fun (op, raw) ->
          if cap > 0 then begin
            let i = raw mod cap in
            match op with
            | 0 ->
                Bitset.add s i;
                model := IntSet.add i !model
            | 1 ->
                Bitset.remove s i;
                model := IntSet.remove i !model
            | 2 ->
                if Bitset.mem s i <> IntSet.mem i !model then
                  QCheck.Test.fail_report "mem mismatch"
            | _ ->
                (* the unchecked accessors must agree with the checked
                   ones on every in-range index *)
                if Bitset.unsafe_mem s i <> IntSet.mem i !model then
                  QCheck.Test.fail_report "unsafe_mem mismatch"
          end)
        ops;
      Bitset.elements s = IntSet.elements !model
      && Bitset.cardinal s = IntSet.cardinal !model
      && Bitset.is_empty s = IntSet.is_empty !model
      && Bitset.equal s (Bitset.of_list cap (IntSet.elements !model)))

let bitset_edge_binop_prop =
  QCheck.Test.make ~count:400
    ~name:"bitset binops and changed flags at word-boundary capacities"
    (QCheck.make
       QCheck.Gen.(
         triple
           (int_bound (Array.length edge_caps - 1))
           (list_size (int_bound 40) (int_bound 1000))
           (list_size (int_bound 40) (int_bound 1000))))
    (fun (ci, la, lb) ->
      let cap = edge_caps.(ci) in
      let la = if cap = 0 then [] else List.map (fun x -> x mod cap) la
      and lb = if cap = 0 then [] else List.map (fun x -> x mod cap) lb in
      let a = Bitset.of_list cap la and b = Bitset.of_list cap lb in
      let sa = IntSet.of_list la and sb = IntSet.of_list lb in
      let test into set_op =
        let d = Bitset.copy a in
        let changed = into ~dst:d b in
        let expect = set_op sa sb in
        Bitset.elements d = IntSet.elements expect
        && changed = not (IntSet.equal sa expect)
      in
      test Bitset.union_into IntSet.union
      && test Bitset.inter_into IntSet.inter
      && test Bitset.diff_into IntSet.diff)

(* --- union-find --- *)

let union_find_unit =
  [
    tc "singletons" (fun () ->
        let u = Union_find.create 5 in
        check Alcotest.int "classes" 5 (Union_find.n_classes u);
        for i = 0 to 4 do
          check Alcotest.int "find self" i (Union_find.find u i)
        done);
    tc "union merges" (fun () ->
        let u = Union_find.create 6 in
        ignore (Union_find.union u 0 1);
        ignore (Union_find.union u 2 3);
        ignore (Union_find.union u 1 3);
        check Alcotest.bool "0~3" true (Union_find.same u 0 3);
        check Alcotest.bool "0~4" false (Union_find.same u 0 4);
        check Alcotest.int "classes" 3 (Union_find.n_classes u));
    tc "union_to keeps representative" (fun () ->
        let u = Union_find.create 4 in
        Union_find.union_to u ~keep:2 0;
        Union_find.union_to u ~keep:2 1;
        check Alcotest.int "rep" (Union_find.find u 2) (Union_find.find u 0);
        check Alcotest.int "rep is 2" 2 (Union_find.find u 1));
    tc "classes listing" (fun () ->
        let u = Union_find.create 4 in
        ignore (Union_find.union u 0 3);
        let cls = Union_find.classes u in
        check Alcotest.int "count" 3 (List.length cls);
        let _, members =
          List.find (fun (_, ms) -> List.length ms = 2) cls
        in
        check (Alcotest.list Alcotest.int) "members" [ 0; 3 ] members);
  ]

let union_find_prop =
  QCheck.Test.make ~count:200 ~name:"union-find equivalence closure"
    QCheck.(list_of_size (Gen.int_bound 40) (pair (int_bound 19) (int_bound 19)))
    (fun pairs ->
      let u = Union_find.create 20 in
      List.iter (fun (a, b) -> ignore (Union_find.union u a b)) pairs;
      (* reference: transitive closure via repeated merging of int sets *)
      let sets = ref (List.init 20 (fun i -> IntSet.singleton i)) in
      List.iter
        (fun (a, b) ->
          let sa = List.find (fun s -> IntSet.mem a s) !sets in
          let sb = List.find (fun s -> IntSet.mem b s) !sets in
          if not (IntSet.equal sa sb) then
            sets :=
              IntSet.union sa sb
              :: List.filter (fun s -> not (IntSet.equal s sa || IntSet.equal s sb)) !sets)
        pairs;
      List.length !sets = Union_find.n_classes u
      && List.for_all
           (fun s ->
             let l = IntSet.elements s in
             List.for_all (fun x -> Union_find.same u (List.hd l) x) l)
           !sets)

(* --- graphs for dominance/loop tests --- *)

(* A classic irreducible-free CFG:
          0
         / \
        1   2
        |  / \
        | 3   4
         \|  /
          5<-
          |
          6 (loop back to 5? no)  *)
let sample_cfg () =
  let src =
    "routine g\n\
     b0:\n\
    \  r1 <- ldi 1\n\
    \  cbr r1 b1 b2\n\
     b1:\n\
    \  jmp b5\n\
     b2:\n\
    \  cbr r1 b3 b4\n\
     b3:\n\
    \  jmp b5\n\
     b4:\n\
    \  jmp b5\n\
     b5:\n\
    \  ret\n"
  in
  Iloc.Parser.routine src

let loop_cfg () =
  (* 0 -> 1 (header) -> 2 (body, back edge to 1) and 1 -> 3 exit, with an
     inner loop 2 -> 2. *)
  let src =
    "routine l\n\
     b0:\n\
    \  r1 <- ldi 1\n\
    \  jmp b1\n\
     b1:\n\
    \  cbr r1 b2 b3\n\
     b2:\n\
    \  cbr r1 b2 b1\n\
     b3:\n\
    \  ret\n"
  in
  Iloc.Parser.routine src

let naive_dominators (cfg : Cfg.t) =
  (* Iterative set-based dominators: dom(entry) = {entry};
     dom(b) = {b} U inter over preds. *)
  let n = Cfg.n_blocks cfg in
  let all = List.init n (fun i -> i) |> IntSet.of_list in
  let dom = Array.make n all in
  dom.(0) <- IntSet.singleton 0;
  let changed = ref true in
  while !changed do
    changed := false;
    for b = 1 to n - 1 do
      let preds = Cfg.preds cfg b in
      let inter =
        match preds with
        | [] -> IntSet.singleton b
        | p :: ps ->
            List.fold_left (fun acc q -> IntSet.inter acc dom.(q)) dom.(p) ps
      in
      let nd = IntSet.add b inter in
      if not (IntSet.equal nd dom.(b)) then begin
        dom.(b) <- nd;
        changed := true
      end
    done
  done;
  dom

let dominance_unit =
  [
    tc "diamond idoms" (fun () ->
        let cfg = sample_cfg () in
        let d = Dataflow.Dominance.compute cfg in
        check Alcotest.int "idom b5" 0 d.Dataflow.Dominance.idom.(5);
        check Alcotest.int "idom b3" 2 d.Dataflow.Dominance.idom.(3);
        check Alcotest.int "idom b1" 0 d.Dataflow.Dominance.idom.(1);
        check Alcotest.bool "0 dom 5" true (Dataflow.Dominance.dominates d 0 5);
        check Alcotest.bool "2 dom 5" false (Dataflow.Dominance.dominates d 2 5);
        check Alcotest.bool "strict self" false
          (Dataflow.Dominance.strictly_dominates d 3 3));
    tc "frontiers" (fun () ->
        let cfg = sample_cfg () in
        let d = Dataflow.Dominance.compute cfg in
        let df = Dataflow.Dominance.frontiers cfg d in
        check (Alcotest.list Alcotest.int) "df b1" [ 5 ]
          (Bitset.elements df.(1));
        check (Alcotest.list Alcotest.int) "df b3" [ 5 ]
          (Bitset.elements df.(3));
        check (Alcotest.list Alcotest.int) "df b2" [ 5 ]
          (Bitset.elements df.(2));
        check (Alcotest.list Alcotest.int) "df b0" []
          (Bitset.elements df.(0)));
    tc "iterated frontier" (fun () ->
        let cfg = loop_cfg () in
        let d = Dataflow.Dominance.compute cfg in
        let df = Dataflow.Dominance.frontiers cfg d in
        (* defs in b0 and b2: DF+ must contain the loop header b1. *)
        let idf =
          Dataflow.Dominance.iterated_frontier ~n:(Cfg.n_blocks cfg) df [ 0; 2 ]
        in
        check Alcotest.bool "header in DF+" true (Bitset.mem idf 1));
    tc "postdominators" (fun () ->
        let cfg = sample_cfg () in
        let pd, exit = Dataflow.Dominance.postdominators cfg in
        check Alcotest.int "virtual exit" 6 exit;
        (* b5 postdominates every block. *)
        for b = 0 to 5 do
          check Alcotest.bool
            (Printf.sprintf "b5 pdom b%d" b)
            true
            (Dataflow.Dominance.dominates pd 5 b)
        done);
    tc "matches naive dominators on fixtures" (fun () ->
        List.iter
          (fun (_, cfg) ->
            let cfg = Cfg.split_critical_edges cfg in
            let d = Dataflow.Dominance.compute cfg in
            let naive = naive_dominators cfg in
            for a = 0 to Cfg.n_blocks cfg - 1 do
              for b = 0 to Cfg.n_blocks cfg - 1 do
                check Alcotest.bool
                  (Printf.sprintf "dom %d %d" a b)
                  (IntSet.mem a naive.(b))
                  (Dataflow.Dominance.dominates d a b)
              done
            done)
          (Testutil.all_fixed ()))
  ]

let loops_unit =
  [
    tc "loop nesting" (fun () ->
        let cfg = loop_cfg () in
        let d = Dataflow.Dominance.compute cfg in
        let l = Dataflow.Loops.compute cfg d in
        check Alcotest.int "two loops" 2 (Array.length l.Dataflow.Loops.loops);
        check Alcotest.int "b0 depth" 0 l.Dataflow.Loops.depth.(0);
        check Alcotest.int "b1 depth" 1 l.Dataflow.Loops.depth.(1);
        check Alcotest.int "b2 depth" 2 l.Dataflow.Loops.depth.(2);
        check Alcotest.int "b3 depth" 0 l.Dataflow.Loops.depth.(3));
    tc "weights" (fun () ->
        let cfg = loop_cfg () in
        let d = Dataflow.Dominance.compute cfg in
        let l = Dataflow.Loops.compute cfg d in
        check (Alcotest.float 1e-9) "depth 0" 1.0 (Dataflow.Loops.weight l 0);
        check (Alcotest.float 1e-9) "depth 1" 10.0 (Dataflow.Loops.weight l 1);
        check (Alcotest.float 1e-9) "depth 2" 100.0 (Dataflow.Loops.weight l 2));
    tc "no loops in dag" (fun () ->
        let cfg = sample_cfg () in
        let d = Dataflow.Dominance.compute cfg in
        let l = Dataflow.Loops.compute cfg d in
        check Alcotest.int "zero" 0 (Array.length l.Dataflow.Loops.loops));
  ]

(* --- liveness --- *)

let liveness_unit =
  [
    tc "straight-line liveness" (fun () ->
        let cfg = Testutil.straight () in
        let lv = Dataflow.Liveness.compute cfg in
        check (Alcotest.list Alcotest.string) "live-in entry" []
          (List.map Iloc.Reg.to_string (Dataflow.Liveness.live_in lv 0)));
    tc "loop keeps accumulator live" (fun () ->
        let cfg = Testutil.counted_loop () in
        let lv = Dataflow.Liveness.compute cfg in
        (* acc (r2) and i (r1) are live around the loop header (block 1). *)
        let live_in_head =
          List.map Iloc.Reg.to_string (Dataflow.Liveness.live_in lv 1)
        in
        check Alcotest.bool "i live" true (List.mem "r1" live_in_head);
        check Alcotest.bool "acc live" true (List.mem "r2" live_in_head));
    tc "dead value not live" (fun () ->
        let src =
          "routine x\nentry:\n  r1 <- ldi 1\n  r2 <- ldi 2\n  print r1\n  ret\n"
        in
        let cfg = Iloc.Parser.routine src in
        let lv = Dataflow.Liveness.compute cfg in
        check Alcotest.bool "r2 not live in" false
          (Dataflow.Liveness.live_in_mem lv 0 (Iloc.Reg.make 2 Iloc.Reg.Int)));
    tc "branch-dependent liveness" (fun () ->
        let cfg = Testutil.diamond () in
        let lv = Dataflow.Liveness.compute cfg in
        (* x (r2) is live into both arms and the join. *)
        let x = Iloc.Reg.make 2 Iloc.Reg.Int in
        check Alcotest.bool "then" true (Dataflow.Liveness.live_in_mem lv 1 x);
        check Alcotest.bool "else" true (Dataflow.Liveness.live_in_mem lv 2 x);
        check Alcotest.bool "join" true (Dataflow.Liveness.live_in_mem lv 3 x));
    tc "ssa form rejected" (fun () ->
        let ssa = Ssa.Construct.run (Testutil.diamond ()) in
        try
          ignore (Dataflow.Liveness.compute ssa);
          Alcotest.fail "liveness accepted SSA form"
        with Invalid_argument _ -> ());
  ]

(* --- boundary liveness: |U|-compressed rows vs the dense rows --- *)

(* A routine whose second block upward-exposes exactly [k] integer
   registers, so the boundary universe has exactly [k] members — sized
   to straddle the bitset word width. *)
let k_crossing_routine k =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "routine x\nentry:\n";
  for i = 1 to k do
    Buffer.add_string buf (Printf.sprintf "  r%d <- ldi %d\n" i i)
  done;
  Buffer.add_string buf "  jmp next\nnext:\n";
  for i = 1 to k do
    Buffer.add_string buf (Printf.sprintf "  print r%d\n" i)
  done;
  Buffer.add_string buf "  ret\n";
  Iloc.Parser.routine (Buffer.contents buf)

let boundary_agrees what cfg =
  let dense = Dataflow.Liveness.compute cfg in
  let bound = Dataflow.Liveness.Boundary.compute (Iloc.Flat.of_routine cfg) in
  let regs = Cfg.all_regs cfg in
  for b = 0 to Cfg.n_blocks cfg - 1 do
    Iloc.Reg.Set.iter
      (fun r ->
        check Alcotest.bool
          (Printf.sprintf "%s: live-in b%d %s" what b (Iloc.Reg.to_string r))
          (Dataflow.Liveness.live_in_mem dense b r)
          (Dataflow.Liveness.Boundary.live_in_mem bound b r);
        check Alcotest.bool
          (Printf.sprintf "%s: live-out b%d %s" what b (Iloc.Reg.to_string r))
          (Dataflow.Liveness.live_out_mem dense b r)
          (Dataflow.Liveness.Boundary.live_out_mem bound b r))
      regs
  done;
  bound

let boundary_unit =
  [
    tc "empty universe" (fun () ->
        (* Everything is defined before use within its block, so nothing
           is upward-exposed and every row is empty. *)
        let cfg =
          Iloc.Parser.routine
            "routine x\n\
             entry:\n\
            \  r1 <- ldi 1\n\
            \  print r1\n\
            \  jmp next\n\
             next:\n\
            \  r2 <- ldi 2\n\
            \  print r2\n\
            \  ret\n"
        in
        let bound = boundary_agrees "empty" cfg in
        check Alcotest.int "universe size" 0
          (Dataflow.Reg_index.count
             bound.Dataflow.Liveness.Boundary.uindex));
    tc "single-block routine" (fun () ->
        let cfg =
          Iloc.Parser.routine
            "routine x\nentry:\n  r1 <- ldi 1\n  print r1\n  ret\n"
        in
        let bound = boundary_agrees "single" cfg in
        check Alcotest.int "universe size" 0
          (Dataflow.Reg_index.count
             bound.Dataflow.Liveness.Boundary.uindex);
        check Alcotest.bool "r1 not boundary-live" false
          (Dataflow.Liveness.Boundary.live_in_mem bound 0
             (Iloc.Reg.make 1 Iloc.Reg.Int)));
    tc "universe at the word edges" (fun () ->
        (* |U| = 63, 64, 65: one below, exactly at, and one above the
           bitset word width, where row-width bugs would bite. *)
        List.iter
          (fun k ->
            let cfg = k_crossing_routine k in
            let bound =
              boundary_agrees (Printf.sprintf "|U|=%d" k) cfg
            in
            check Alcotest.int
              (Printf.sprintf "universe size %d" k)
              k
              (Dataflow.Reg_index.count
                 bound.Dataflow.Liveness.Boundary.uindex))
          [ 63; 64; 65 ]);
  ]

(* --- growable int vectors --- *)

let int_vec_unit =
  [
    tc "of_prefix adopts its array without copying" (fun () ->
        let data = [| 3; 1; 2; 9 |] in
        let v = Dataflow.Int_vec.of_prefix data 3 in
        check (Alcotest.list Alcotest.int) "contents" [ 3; 1; 2 ]
          (Dataflow.Int_vec.to_list v);
        (* the slot past the prefix is spare capacity: the next push
           lands in the adopted array *)
        Dataflow.Int_vec.push v 5;
        check Alcotest.int "pushed in place" 5 data.(3);
        Dataflow.Int_vec.push v 6;
        check (Alcotest.list Alcotest.int) "grown" [ 3; 1; 2; 5; 6 ]
          (Dataflow.Int_vec.to_list v);
        List.iter
          (fun len ->
            match Dataflow.Int_vec.of_prefix data len with
            | _ -> Alcotest.failf "prefix %d accepted" len
            | exception Invalid_argument _ -> ())
          [ -1; 5 ]);
    tc "push grows past capacity and get reads back" (fun () ->
        let v = Dataflow.Int_vec.create () in
        for i = 0 to 99 do
          Dataflow.Int_vec.push v (i * 3)
        done;
        check Alcotest.int "length" 100 (Dataflow.Int_vec.length v);
        for i = 0 to 99 do
          check Alcotest.int (Printf.sprintf "get %d" i) (i * 3)
            (Dataflow.Int_vec.get v i)
        done;
        List.iter
          (fun i ->
            match Dataflow.Int_vec.get v i with
            | _ -> Alcotest.failf "get %d accepted" i
            | exception Invalid_argument _ -> ())
          [ -1; 100 ]);
    tc "remove_value swaps the last element in" (fun () ->
        let v = Dataflow.Int_vec.create () in
        List.iter (Dataflow.Int_vec.push v) [ 1; 2; 3; 4; 2 ];
        Dataflow.Int_vec.remove_value v 2;
        (* the first 2 goes; the last element takes its slot *)
        check (Alcotest.list Alcotest.int) "first occurrence" [ 1; 2; 3; 4 ]
          (Dataflow.Int_vec.to_list v);
        Dataflow.Int_vec.remove_value v 1;
        check (Alcotest.list Alcotest.int) "swapped" [ 4; 2; 3 ]
          (Dataflow.Int_vec.to_list v);
        Dataflow.Int_vec.remove_value v 9;
        check (Alcotest.list Alcotest.int) "absent is a no-op" [ 4; 2; 3 ]
          (Dataflow.Int_vec.to_list v);
        check Alcotest.bool "mem 2" true (Dataflow.Int_vec.mem v 2);
        check Alcotest.bool "mem 1" false (Dataflow.Int_vec.mem v 1));
    tc "pop returns the last element and rejects empty" (fun () ->
        let v = Dataflow.Int_vec.create ~cap:2 () in
        List.iter (Dataflow.Int_vec.push v) [ 7; 8 ];
        check Alcotest.int "last" 8 (Dataflow.Int_vec.pop v);
        check Alcotest.int "next" 7 (Dataflow.Int_vec.pop v);
        check Alcotest.int "empty" 0 (Dataflow.Int_vec.length v);
        match Dataflow.Int_vec.pop v with
        | _ -> Alcotest.fail "pop on empty accepted"
        | exception Invalid_argument _ -> ());
    tc "copy shares no storage with its source" (fun () ->
        (* An adopted array is the one a build fills in place; the copy
           of a vector over it must not see later writes to it. *)
        let data = [| 4; 5; 6; 0 |] in
        let v = Dataflow.Int_vec.of_prefix data 3 in
        let c = Dataflow.Int_vec.copy v in
        data.(0) <- 40;
        Dataflow.Int_vec.push v 7;
        Dataflow.Int_vec.push c 9;
        check (Alcotest.list Alcotest.int) "copy" [ 4; 5; 6; 9 ]
          (Dataflow.Int_vec.to_list c);
        check (Alcotest.list Alcotest.int) "source" [ 40; 5; 6; 7 ]
          (Dataflow.Int_vec.to_list v));
    tc "clear empties and keeps the vector usable" (fun () ->
        let v = Dataflow.Int_vec.of_prefix [| 1; 2; 3 |] 3 in
        Dataflow.Int_vec.clear v;
        check Alcotest.int "length" 0 (Dataflow.Int_vec.length v);
        check Alcotest.bool "mem" false (Dataflow.Int_vec.mem v 1);
        Dataflow.Int_vec.push v 5;
        check (Alcotest.list Alcotest.int) "refilled" [ 5 ]
          (Dataflow.Int_vec.to_list v));
    tc "iter, fold and exists visit the contents in order" (fun () ->
        let v = Dataflow.Int_vec.of_prefix [| 3; 1; 2; 99 |] 3 in
        let seen = ref [] in
        Dataflow.Int_vec.iter (fun x -> seen := x :: !seen) v;
        check (Alcotest.list Alcotest.int) "iter" [ 3; 1; 2 ] (List.rev !seen);
        check (Alcotest.list Alcotest.int) "fold" [ 2; 1; 3 ]
          (Dataflow.Int_vec.fold (fun x acc -> x :: acc) v []);
        check Alcotest.bool "exists 2" true
          (Dataflow.Int_vec.exists (( = ) 2) v);
        (* the spare slot past the prefix is not part of the contents *)
        check Alcotest.bool "spare slot" false
          (Dataflow.Int_vec.exists (( = ) 99) v));
  ]

(* Int_vec against a list model with the same swap-removal rule, under
   random push/remove/pop/clear traffic. *)
let int_vec_prop =
  QCheck.Test.make ~count:300 ~name:"int vec matches reference list"
    QCheck.(list (pair (int_bound 3) (int_bound 20)))
    (fun ops ->
      let v = Dataflow.Int_vec.create () in
      let model = ref [] in
      let remove x l =
        if not (List.mem x l) then l
        else begin
          let a = Array.of_list l in
          let n = Array.length a in
          let rec first i = if a.(i) = x then i else first (i + 1) in
          a.(first 0) <- a.(n - 1);
          Array.to_list (Array.sub a 0 (n - 1))
        end
      in
      List.for_all
        (fun (op, x) ->
          (match op with
          | 0 | 1 ->
              Dataflow.Int_vec.push v x;
              model := !model @ [ x ]
          | 2 ->
              Dataflow.Int_vec.remove_value v x;
              model := remove x !model
          | _ ->
              if !model = [] then Dataflow.Int_vec.clear v
              else begin
                let last = Dataflow.Int_vec.pop v in
                let n = List.length !model in
                if last <> List.nth !model (n - 1) then
                  QCheck.Test.fail_reportf "pop returned %d" last;
                model := List.filteri (fun i _ -> i < n - 1) !model
              end);
          Dataflow.Int_vec.to_list v = !model
          && Dataflow.Int_vec.mem v x = List.mem x !model
          && Dataflow.Int_vec.length v = List.length !model)
        ops)

(* naive per-register liveness for the property test: r is live-in at b
   iff some path from b reaches a use of r with no intervening def. *)
let naive_live_in (cfg : Cfg.t) (r : Iloc.Reg.t) =
  let n = Cfg.n_blocks cfg in
  let uses_before_def = Array.make n false in
  let defines = Array.make n false in
  Cfg.iter_blocks
    (fun b ->
      let defined = ref false in
      Iloc.Block.iter_instrs
        (fun i ->
          if (not !defined) && List.exists (Iloc.Reg.equal r) (Iloc.Instr.uses i)
          then uses_before_def.(b.Iloc.Block.id) <- true;
          if List.exists (Iloc.Reg.equal r) (Iloc.Instr.defs i) then
            defined := true)
        b;
      defines.(b.Iloc.Block.id) <- !defined)
    cfg;
  let live = Array.make n false in
  let changed = ref true in
  while !changed do
    changed := false;
    for b = 0 to n - 1 do
      let v =
        uses_before_def.(b)
        || (not defines.(b))
           && List.exists (fun s -> live.(s)) (Cfg.succs cfg b)
      in
      if v && not live.(b) then begin
        live.(b) <- true;
        changed := true
      end
    done
  done;
  live

let liveness_prop =
  QCheck.Test.make ~count:60 ~name:"liveness matches naive per-register"
    Testutil.Gen_prog.arbitrary_cfg
    (fun cfg ->
      let lv = Dataflow.Liveness.compute cfg in
      Iloc.Reg.Set.for_all
        (fun r ->
          let naive = naive_live_in cfg r in
          let ok = ref true in
          for b = 0 to Cfg.n_blocks cfg - 1 do
            if Dataflow.Liveness.live_in_mem lv b r <> naive.(b) then ok := false
          done;
          !ok)
        (Cfg.all_regs cfg))

(* The round-robin fixpoint the worklist solver replaced: sweep every
   block until nothing changes.  Slower but obviously correct, so the
   worklist (which revisits only predecessors of changed blocks) is
   cross-checked against it on random programs. *)
let round_robin_liveness (cfg : Cfg.t) =
  let module RS = Iloc.Reg.Set in
  let n = Cfg.n_blocks cfg in
  let ue = Array.make n RS.empty and kill = Array.make n RS.empty in
  Cfg.iter_blocks
    (fun b ->
      let id = b.Iloc.Block.id in
      Iloc.Block.iter_instrs
        (fun i ->
          List.iter
            (fun r ->
              if not (RS.mem r kill.(id)) then ue.(id) <- RS.add r ue.(id))
            (Iloc.Instr.uses i);
          List.iter (fun r -> kill.(id) <- RS.add r kill.(id)) (Iloc.Instr.defs i))
        b)
    cfg;
  let live_in = Array.make n RS.empty and live_out = Array.make n RS.empty in
  let changed = ref true in
  while !changed do
    changed := false;
    for b = n - 1 downto 0 do
      let out =
        List.fold_left
          (fun acc s -> RS.union acc live_in.(s))
          RS.empty (Cfg.succs cfg b)
      in
      live_out.(b) <- out;
      let inn = RS.union ue.(b) (RS.diff out kill.(b)) in
      if not (RS.equal inn live_in.(b)) then begin
        live_in.(b) <- inn;
        changed := true
      end
    done
  done;
  (live_in, live_out)

let worklist_vs_round_robin_prop =
  QCheck.Test.make ~count:60 ~name:"worklist liveness matches round-robin"
    Testutil.Gen_prog.arbitrary_cfg
    (fun cfg ->
      let lv = Dataflow.Liveness.compute cfg in
      let rin, rout = round_robin_liveness cfg in
      let reach = Dataflow.Order.reachable cfg in
      let regs = Cfg.all_regs cfg in
      let ok = ref true in
      for b = 0 to Cfg.n_blocks cfg - 1 do
        (* the worklist only visits reachable blocks; the round-robin
           sweep also converges on unreachable ones, whose liveness no
           consumer reads *)
        if reach.(b) then
          Iloc.Reg.Set.iter
            (fun r ->
              if
                Dataflow.Liveness.live_in_mem lv b r <> Iloc.Reg.Set.mem r rin.(b)
                || Dataflow.Liveness.live_out_mem lv b r
                   <> Iloc.Reg.Set.mem r rout.(b)
              then ok := false)
            regs
      done;
      !ok)

(* depth-first orders: permutations of the reachable blocks, with the
   entry last in postorder / first in reverse postorder *)
let order_prop =
  QCheck.Test.make ~count:80 ~name:"postorder and RPO are consistent"
    Testutil.Gen_prog.arbitrary_cfg
    (fun cfg ->
      let po = Dataflow.Order.postorder cfg in
      let rpo = Dataflow.Order.reverse_postorder cfg in
      let reach = Dataflow.Order.reachable cfg in
      let n_reach =
        Array.fold_left (fun acc r -> if r then acc + 1 else acc) 0 reach
      in
      Array.length po = n_reach
      && Array.length rpo = n_reach
      && Array.for_all (fun b -> reach.(b)) po
      && List.sort_uniq Int.compare (Array.to_list po)
         = List.sort Int.compare (Array.to_list po)
      && po.(Array.length po - 1) = cfg.Cfg.entry
      && rpo.(0) = cfg.Cfg.entry
      (* a block's successors appear before it in postorder unless the
         edge is a back edge (target already on the DFS stack); weaker
         sanity: rpo reverses po exactly *)
      && Array.for_all2 ( = ) rpo
           (Array.init (Array.length po) (fun i ->
                po.(Array.length po - 1 - i))))

(* dominators on random structured programs match the naive quadratic
   set-based computation *)
let dominance_prop =
  QCheck.Test.make ~count:60 ~name:"dominators match naive on random CFGs"
    Testutil.Gen_prog.arbitrary_cfg
    (fun cfg ->
      let cfg = Cfg.split_critical_edges cfg in
      let d = Dataflow.Dominance.compute cfg in
      let naive = naive_dominators cfg in
      let ok = ref true in
      for a = 0 to Cfg.n_blocks cfg - 1 do
        for b = 0 to Cfg.n_blocks cfg - 1 do
          if Dataflow.Dominance.dominates d a b <> IntSet.mem a naive.(b) then
            ok := false
        done
      done;
      !ok)

(* structural loop invariants on random programs *)
let loops_prop =
  QCheck.Test.make ~count:60 ~name:"loop structure invariants"
    Testutil.Gen_prog.arbitrary_cfg
    (fun cfg ->
      let cfg = Cfg.split_critical_edges cfg in
      let d = Dataflow.Dominance.compute cfg in
      let l = Dataflow.Loops.compute cfg d in
      Array.for_all
        (fun (loop : Dataflow.Loops.loop) ->
          (* the header is in the body and dominates every body block *)
          Bitset.mem loop.body loop.header
          && Bitset.fold
               (fun b acc ->
                 acc && Dataflow.Dominance.dominates d loop.header b)
               loop.body true
          (* nesting depth of the header matches the loop's depth *)
          && l.Dataflow.Loops.depth.(loop.header) >= loop.depth)
        l.Dataflow.Loops.loops)

(* postdominance: the virtual exit postdominates everything reachable *)
let postdom_prop =
  QCheck.Test.make ~count:60 ~name:"virtual exit postdominates"
    Testutil.Gen_prog.arbitrary_cfg
    (fun cfg ->
      let pd, exit = Dataflow.Dominance.postdominators cfg in
      let reach = Dataflow.Order.reachable cfg in
      let ok = ref true in
      for b = 0 to Cfg.n_blocks cfg - 1 do
        if reach.(b) && not (Dataflow.Dominance.dominates pd exit b) then
          ok := false
      done;
      !ok)

let props = List.map QCheck_alcotest.to_alcotest
    [ bitset_prop; bitset_binop_prop; bitset_edge_prop; bitset_edge_binop_prop;
      union_find_prop; liveness_prop; worklist_vs_round_robin_prop;
      order_prop; dominance_prop; loops_prop; postdom_prop; int_vec_prop ]

let () =
  Alcotest.run "dataflow"
    [
      ("bitset", bitset_unit);
      ("int-vec", int_vec_unit);
      ("union-find", union_find_unit);
      ("dominance", dominance_unit);
      ("loops", loops_unit);
      ("liveness", liveness_unit);
      ("boundary", boundary_unit);
      ("properties", props);
    ]
