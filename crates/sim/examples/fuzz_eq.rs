use pascal_sim::{EventQueue, HeapEventQueue, SimDuration};

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 11
}

fn run_ops(ops: &[(u32, u64)]) -> Result<(), String> {
    let mut queue = EventQueue::new();
    let mut heap = HeapEventQueue::new();
    let mut ids = Vec::new();
    for (n, &(opcode, operand)) in ops.iter().enumerate() {
        match opcode % 100 {
            0..=49 => {
                let t = queue.now() + SimDuration::from_nanos(operand);
                let a = queue.schedule(t, n);
                let b = heap.schedule(t, n);
                ids.push((a, b));
            }
            50..=69 => {
                if !ids.is_empty() {
                    let (a, b) = ids[(operand % ids.len() as u64) as usize];
                    if queue.cancel(a) != heap.cancel(b) {
                        return Err(format!("cancel mismatch at op {n}"));
                    }
                }
            }
            70..=94 => {
                let (x, y) = (queue.pop(), heap.pop());
                if x != y {
                    return Err(format!("pop mismatch at op {n}: queue={x:?} heap={y:?}"));
                }
            }
            _ => {
                if queue.peek_time() != heap.peek_time() {
                    return Err(format!("peek mismatch at op {n}"));
                }
            }
        }
        if queue.len() != heap.len() {
            return Err(format!(
                "len mismatch at op {n}: {} vs {}",
                queue.len(),
                heap.len()
            ));
        }
    }
    loop {
        let (x, y) = (queue.pop(), heap.pop());
        if x != y {
            return Err(format!("drain mismatch: queue={x:?} heap={y:?}"));
        }
        if y.is_none() {
            break;
        }
    }
    Ok(())
}

fn main() {
    for seed in 0..2000u64 {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let nops = 1 + (lcg(&mut s) % 400) as usize;
        let ops: Vec<(u32, u64)> = (0..nops)
            .map(|_| ((lcg(&mut s) % 100) as u32, lcg(&mut s) % 200_000_000))
            .collect();
        if let Err(e) = run_ops(&ops) {
            // shrink: remove ops one at a time while still failing
            let mut cur = ops.clone();
            loop {
                let mut shrunk = false;
                let mut i = 0;
                while i < cur.len() {
                    let mut cand = cur.clone();
                    cand.remove(i);
                    if run_ops(&cand).is_err() {
                        cur = cand;
                        shrunk = true;
                    } else {
                        i += 1;
                    }
                }
                if !shrunk {
                    break;
                }
            }
            println!("seed {seed}: {e}");
            println!("minimal {} ops: {:?}", cur.len(), cur);
            println!("minimal error: {:?}", run_ops(&cur));
            return;
        }
    }
    println!("no failure in 2000 seeds");
}
