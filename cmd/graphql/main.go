// Command graphql is an interactive subgraph query shell (the G-thinkerQ
// usage model): load a big graph once, then submit subgraph-count queries
// continually; queries execute concurrently on a shared task pool and answer
// as they complete.
//
//	graphql -graph data.txt        # or -gen ba -n 5000
//
// Commands at the prompt:
//
//	pattern <name>           query a named pattern (edge, wedge, triangle,
//	                         square, diamond, k4, k5, star4)
//	edges <u-v,v-w,...>      query an ad-hoc pattern given as an edge list
//	                         over vertex ids 0..k-1, e.g. edges 0-1,1-2,2-0
//	dist <u> <v>             hop distance between two vertices (Quegel-style
//	                         batched point-to-point query)
//	stats                    print graph statistics
//	quit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"graphsys/internal/graph"
	"graphsys/internal/graph/gen"
	"graphsys/internal/gthinkerq"
	"graphsys/internal/pregel"
	"graphsys/internal/quegel"
	"graphsys/internal/serve"
)

var patterns = map[string][][2]graph.V{
	"edge":     {{0, 1}},
	"wedge":    {{0, 1}, {1, 2}},
	"triangle": {{0, 1}, {1, 2}, {0, 2}},
	"square":   {{0, 1}, {1, 2}, {2, 3}, {3, 0}},
	"diamond":  {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}},
	"k4":       {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}},
	"k5":       {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 4}},
	"star4":    {{0, 1}, {0, 2}, {0, 3}, {0, 4}},
}

func main() {
	log.SetFlags(0)
	var (
		path    = flag.String("graph", "", "edge-list file to load")
		genKind = flag.String("gen", "ba", "generator when no -graph given: ba | er | community")
		n       = flag.Int("n", 2000, "generated graph size")
		workers = flag.Int("workers", 8, "query worker pool size")
		seed    = flag.Int64("seed", 1, "generator seed")
	)
	flag.Parse()

	var g *graph.Graph
	if *path != "" {
		f, err := os.Open(*path)
		if err != nil {
			log.Fatalf("graphql: %v", err)
		}
		g, err = graph.ReadEdgeList(f)
		f.Close()
		if err != nil {
			log.Fatalf("graphql: %v", err)
		}
	} else {
		switch *genKind {
		case "er":
			g = gen.ErdosRenyi(*n, int64(*n)*4, *seed)
		case "community":
			g = gen.PlantedPartitionSparse(*n, 8, 10, 1, *seed).Graph
		default:
			g = gen.BarabasiAlbert(*n, 4, *seed)
		}
	}
	fmt.Printf("loaded %v; query server with %d workers ready\n", g, *workers)
	eng, err := gthinkerq.NewEngine(g, serve.Options{Workers: *workers, Policy: serve.RoundRobin})
	if err != nil {
		log.Fatalf("graphql: %v", err)
	}
	defer eng.Close()
	var inflight sync.WaitGroup
	defer inflight.Wait() // answer every submitted query before exiting

	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		fields := strings.Fields(line)
		if len(fields) == 0 {
			fmt.Print("> ")
			continue
		}
		switch fields[0] {
		case "quit", "exit":
			return
		case "stats":
			fmt.Printf("%v  maxdeg=%d  triangles=%d\n", g, g.MaxDegree(), graph.TriangleCount(g))
		case "pattern":
			if len(fields) < 2 {
				fmt.Println("usage: pattern <name>")
				break
			}
			edges, ok := patterns[fields[1]]
			if !ok {
				fmt.Printf("unknown pattern %q (known:", fields[1])
				for name := range patterns {
					fmt.Printf(" %s", name)
				}
				fmt.Println(")")
				break
			}
			submit(eng, &inflight, fields[1], edges)
		case "dist":
			if len(fields) < 3 {
				fmt.Println("usage: dist <u> <v>")
				break
			}
			u, err1 := strconv.Atoi(fields[1])
			v, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil || u < 0 || v < 0 ||
				u >= g.NumVertices() || v >= g.NumVertices() {
				fmt.Println("bad vertex ids")
				break
			}
			ans, st, err := quegel.AnswerBatched(g, []quegel.Query{{Src: graph.V(u), Dst: graph.V(v)}}, pregel.Config{Workers: *workers})
			if err != nil {
				fmt.Printf("query failed: %v\n", err)
				break
			}
			fmt.Printf("dist(%d,%d) = %d  (%d rounds)\n", u, v, ans[0].Dist, st.Supersteps)
		case "edges":
			if len(fields) < 2 {
				fmt.Println("usage: edges 0-1,1-2,2-0")
				break
			}
			edges, err := parseEdges(fields[1])
			if err != nil {
				fmt.Printf("bad edge list: %v\n", err)
				break
			}
			submit(eng, &inflight, "ad-hoc", edges)
		default:
			fmt.Println("commands: pattern <name> | edges <list> | stats | quit")
		}
		fmt.Print("> ")
	}
}

func submit(eng *gthinkerq.Engine, inflight *sync.WaitGroup, name string, edges [][2]graph.V) {
	max := graph.V(0)
	for _, e := range edges {
		if e[0] > max {
			max = e[0]
		}
		if e[1] > max {
			max = e[1]
		}
	}
	p := graph.FromEdges(int(max)+1, edges)
	tk, err := eng.Submit(serve.Request[*graph.Graph]{Query: p})
	if err != nil {
		fmt.Printf("query %s rejected: %v\n", name, err)
		return
	}
	inflight.Add(1)
	go func() {
		defer inflight.Done()
		count, err := tk.Wait()
		if err != nil {
			fmt.Printf("\n[query #%d %s] failed: %v\n> ", tk.ID(), name, err)
			return
		}
		fmt.Printf("\n[query #%d %s] %d matches in %s\n> ", tk.ID(), name, count, tk.Latency().Round(time.Microsecond))
	}()
}

func parseEdges(s string) ([][2]graph.V, error) {
	var out [][2]graph.V
	for _, part := range strings.Split(s, ",") {
		uv := strings.SplitN(part, "-", 2)
		if len(uv) != 2 {
			return nil, fmt.Errorf("expected u-v, got %q", part)
		}
		u, err1 := strconv.Atoi(uv[0])
		v, err2 := strconv.Atoi(uv[1])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("bad vertex in %q", part)
		}
		out = append(out, [2]graph.V{graph.V(u), graph.V(v)})
	}
	return out, nil
}
