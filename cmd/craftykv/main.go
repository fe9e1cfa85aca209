// Command craftykv serves the durable key-value store over TCP: flag parsing
// and wiring around internal/server. The protocol — one command table, a
// text codec and a frame codec over it — is documented in DESIGN.md §14 and
// README.md.
package main

import (
	"flag"
	"log"
	"net"
	"time"

	"crafty/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", ":7070", "TCP listen address")
		shards      = flag.Int("shards", 64, "index shards (power of two)")
		slots       = flag.Int("slots", 256, "initial slots per shard (power of two)")
		heapWords   = flag.Int("heap-words", 1<<24, "emulated NVM heap size in 8-byte words")
		arenaWords  = flag.Int("arena-words", 1<<22, "allocation arena size in words")
		pool        = flag.Int("pool", 8, "scheduler workers (engine threads); shards are partitioned across them")
		drain       = flag.Int("drain", 64, "max operations a worker drains into one group commit")
		queue       = flag.Int("queue", 1024, "per-worker queue depth (backpressure bound)")
		persistProb = flag.Float64("persist-prob", 0.5, "probability an unflushed word survives an injected crash")
		checkpoint  = flag.Duration("checkpoint", 0, "incremental checkpoint cadence (0 disables; each pass bounds the next recovery to the shards dirtied after it)")
		paranoid    = flag.Bool("paranoid", false, "recover with the full index verify + arena reconcile even when a checkpoint watermark would bound it")
		metricsAddr = flag.String("metrics", "", "HTTP listen address for the metrics snapshot (/metrics) and pprof (/debug/pprof/); empty disables")
		metricsLog  = flag.Duration("metrics-log", 0, "periodic one-line metrics log cadence (0 disables)")
		connTimeout = flag.Duration("conn-timeout", 0, "per-connection idle/stall bound: reads and flushes that sit longer than this close the connection (0 disables)")
		maxConns    = flag.Int("max-conns", 0, "client connection limit; excess connections get ERR too many connections (0 disables)")
		replListen  = flag.String("repl-listen", "", "TCP listen address for the replication stream (primary role); empty disables")
		replicaOf   = flag.String("replica-of", "", "primary's -repl-listen address to replicate from (replica role: writes refused until PROMOTE)")
		replSync    = flag.Bool("repl-sync", false, "SYNC waits for a replica's durable acknowledgement (acked writes survive primary loss)")
		replTimeout = flag.Duration("repl-sync-timeout", 5*time.Second, "how long a -repl-sync SYNC waits for the replica's durable ack before failing")
		replLogCap  = flag.Int("repl-log", 4096, "commit groups retained for replica catch-up; replicas that fall further behind resync via snapshot")
	)
	flag.Parse()

	srv, err := server.New(server.Config{
		Shards:          *shards,
		Slots:           *slots,
		HeapWords:       *heapWords,
		ArenaWords:      *arenaWords,
		Pool:            *pool,
		Drain:           *drain,
		Queue:           *queue,
		PersistProb:     *persistProb,
		Paranoid:        *paranoid,
		ConnTimeout:     *connTimeout,
		MaxConns:        *maxConns,
		ReplListen:      *replListen,
		ReplicaOf:       *replicaOf,
		ReplSync:        *replSync,
		ReplSyncTimeout: *replTimeout,
		ReplLogCap:      *replLogCap,
	})
	if err != nil {
		log.Fatal(err)
	}
	if *replListen != "" {
		rl, err := net.Listen("tcp", *replListen)
		if err != nil {
			log.Fatal(err)
		}
		srv.StartPrimary(rl)
		log.Printf("craftykv: replication stream on %s", rl.Addr())
	}
	if *replicaOf != "" {
		srv.StartReplica(*replicaOf, nil)
		log.Printf("craftykv: replicating from %s (read-only until PROMOTE)", *replicaOf)
	}
	if *checkpoint > 0 {
		srv.StartCheckpointer(*checkpoint, make(chan struct{}))
	}
	if *metricsLog > 0 {
		srv.StartMetricsLogger(*metricsLog, make(chan struct{}))
	}
	metricsOn := "off"
	if *metricsAddr != "" {
		ml, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			log.Fatal(err)
		}
		srv.ServeMetrics(ml)
		metricsOn = ml.Addr().String()
	}
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("craftykv: config: shards=%d slots=%d heap_words=%d arena_words=%d pool=%d drain=%d queue=%d checkpoint=%s persist_prob=%g paranoid=%t metrics=%s metrics_log=%s",
		*shards, *slots, *heapWords, *arenaWords, *pool, *drain, *queue, *checkpoint, *persistProb, *paranoid, metricsOn, *metricsLog)
	if *metricsAddr != "" {
		log.Printf("craftykv: metrics on http://%s/metrics (pprof under /debug/pprof/)", metricsOn)
	}
	log.Fatal(srv.Serve(l))
}
