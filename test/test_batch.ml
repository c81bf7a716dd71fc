(* The multicore batch pool: task-order results, exception propagation,
   and the property the `ralloc batch -j N` front end advertises — the
   allocations of the whole kernel suite are byte-identical no matter
   how many domains run them. *)

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

let pool_unit =
  [
    tc "results in task order" (fun () ->
        let tasks = Array.init 100 (fun i -> i) in
        let res = Suite.Pool.run ~jobs:4 (fun i -> i * i) tasks in
        check Alcotest.int "length" 100 (Array.length res);
        Array.iteri
          (fun i v -> check Alcotest.int (Printf.sprintf "slot %d" i) (i * i) v)
          res);
    tc "more jobs than tasks" (fun () ->
        let res = Suite.Pool.run ~jobs:16 (fun i -> i + 1) [| 1; 2; 3 |] in
        check (Alcotest.list Alcotest.int) "results" [ 2; 3; 4 ]
          (Array.to_list res));
    tc "empty task array" (fun () ->
        check Alcotest.int "length" 0
          (Array.length (Suite.Pool.run ~jobs:8 (fun x -> x) [||])));
    tc "jobs one runs in the calling domain" (fun () ->
        let self = Domain.self () in
        let res =
          Suite.Pool.run ~jobs:1 (fun _ -> Domain.self ()) [| (); (); () |]
        in
        Array.iter (fun d -> check Alcotest.bool "same domain" true (d = self)) res);
    tc "exception propagates after joining" (fun () ->
        try
          ignore
            (Suite.Pool.run ~jobs:3
               (fun i -> if i = 5 then failwith "boom" else i)
               (Array.init 10 Fun.id));
          Alcotest.fail "expected a Failure"
        with Failure m -> check Alcotest.string "message" "boom" m);
    tc "default_jobs is positive" (fun () ->
        check Alcotest.bool "positive" true (Suite.Pool.default_jobs () >= 1));
  ]

(* The persistent pool behind `ralloc serve`: domains outlive batches,
   results stay in task order, failures propagate from await without
   wedging the pool, and shutdown drains gracefully. *)
let persistent_unit =
  [
    tc "batches keep task order across the same pool" (fun () ->
        let p = Suite.Pool.create ~jobs:4 () in
        Fun.protect
          ~finally:(fun () -> Suite.Pool.shutdown p)
          (fun () ->
            for round = 1 to 5 do
              let tasks = Array.init 50 (fun i -> i + round) in
              let res =
                Suite.Pool.await (Suite.Pool.submit p (fun i -> i * i) tasks)
              in
              Array.iteri
                (fun i v ->
                  check Alcotest.int
                    (Printf.sprintf "round %d slot %d" round i)
                    ((i + round) * (i + round))
                    v)
                res
            done));
    tc "empty batch" (fun () ->
        let p = Suite.Pool.create ~jobs:2 () in
        Fun.protect
          ~finally:(fun () -> Suite.Pool.shutdown p)
          (fun () ->
            check Alcotest.int "length" 0
              (Array.length
                 (Suite.Pool.await (Suite.Pool.submit p (fun x -> x) [||])))));
    tc "interleaved batches answer independently" (fun () ->
        let p = Suite.Pool.create ~jobs:3 () in
        Fun.protect
          ~finally:(fun () -> Suite.Pool.shutdown p)
          (fun () ->
            let b1 = Suite.Pool.submit p (fun i -> i + 1) [| 1; 2; 3 |] in
            let b2 = Suite.Pool.submit p (fun i -> i * 10) [| 1; 2 |] in
            check (Alcotest.list Alcotest.int) "second" [ 10; 20 ]
              (Array.to_list (Suite.Pool.await b2));
            check (Alcotest.list Alcotest.int) "first" [ 2; 3; 4 ]
              (Array.to_list (Suite.Pool.await b1))));
    tc "lowest-indexed failure propagates; the pool keeps working"
      (fun () ->
        let p = Suite.Pool.create ~jobs:3 () in
        Fun.protect
          ~finally:(fun () -> Suite.Pool.shutdown p)
          (fun () ->
            let b =
              Suite.Pool.submit p
                (fun i ->
                  if i = 7 then failwith "seven"
                  else if i = 3 then failwith "three"
                  else i)
                (Array.init 10 Fun.id)
            in
            (try
               ignore (Suite.Pool.await b);
               Alcotest.fail "expected a Failure"
             with Failure m -> check Alcotest.string "lowest wins" "three" m);
            (* The failure stayed in its batch: the pool still serves. *)
            let ok =
              Suite.Pool.await (Suite.Pool.submit p (fun i -> -i) [| 1; 2 |])
            in
            check (Alcotest.list Alcotest.int) "next batch" [ -1; -2 ]
              (Array.to_list ok)));
    tc "a task raising mid-drain propagates from await, not shutdown"
      (fun () ->
        let p = Suite.Pool.create ~jobs:2 () in
        let gate = Atomic.make false in
        let b =
          Suite.Pool.submit p
            (fun i ->
              (* Park until shutdown's drain runs the queue down. *)
              while not (Atomic.get gate) do
                Domain.cpu_relax ()
              done;
              if i = 1 then failwith "mid-drain" else i)
            [| 0; 1; 2; 3 |]
        in
        Atomic.set gate true;
        (* Graceful: shutdown itself must not raise and must not wedge,
           whatever the in-flight tasks do. *)
        Suite.Pool.shutdown p;
        (try
           ignore (Suite.Pool.await b);
           Alcotest.fail "expected a Failure"
         with Failure m -> check Alcotest.string "message" "mid-drain" m);
        Suite.Pool.shutdown p (* idempotent *));
    tc "submit after shutdown raises" (fun () ->
        let p = Suite.Pool.create ~jobs:2 () in
        Suite.Pool.shutdown p;
        match Suite.Pool.submit p (fun x -> x) [| 1 |] with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    tc "jobs clamps to at least one" (fun () ->
        let p = Suite.Pool.create ~jobs:0 () in
        Fun.protect
          ~finally:(fun () -> Suite.Pool.shutdown p)
          (fun () ->
            check Alcotest.bool "positive" true (Suite.Pool.jobs p >= 1);
            let r =
              Suite.Pool.await (Suite.Pool.submit p (fun i -> i + 1) [| 41 |])
            in
            check Alcotest.int "works" 42 r.(0)));
  ]

(* Allocate every suite kernel the way `ralloc batch --kernels -O` does
   and render the result; any scheduling-dependent behavior in the
   allocator (iteration over shared mutable state, hash-order effects)
   would show up as a diff between the -j 1 and -j 4 outputs. *)
let allocate_all jobs =
  Suite.Pool.run ~jobs
    (fun k ->
      let cfg = Suite.Kernels.cfg_of ~optimize:true k in
      let res =
        Remat.Allocator.allocate ~mode:Remat.Mode.Briggs_remat
          ~machine:Remat.Machine.standard cfg
      in
      Iloc.Printer.routine_to_string res.Remat.Allocator.cfg)
    (Array.of_list Suite.Kernels.all)

let determinism_unit =
  [
    tc "kernel suite is byte-identical under -j1 and -j4" (fun () ->
        let seq = allocate_all 1 and par = allocate_all 4 in
        check Alcotest.int "same count" (Array.length seq) (Array.length par);
        Array.iteri
          (fun i s ->
            check Alcotest.string
              (List.nth Suite.Kernels.all i).Suite.Kernels.name s par.(i))
          seq);
  ]

let () =
  Alcotest.run "batch"
    [
      ("pool", pool_unit);
      ("persistent", persistent_unit);
      ("determinism", determinism_unit);
    ]
