package perfbench

import repro.core.profile.DataProfiler
import repro.data.LakeBench

/** Tests of the runner's own code: `python3 perfbench/run.py --self-test`. */
object SelfTest {

  private var failures = 0

  private def test(name: String)(body: => Unit): Unit =
    try { body; println(s"ok   $name") }
    catch { case e: Throwable => failures += 1; println(s"FAIL $name: $e") }

  private def check(ok: Boolean, what: => String): Unit =
    if (!ok) throw new AssertionError(what)

  /** A tracer on a clock that the test moves by hand. */
  private final class Clocked {
    var now = 0L
    val tr  = new Tracer(true, clock = () => now)
    def at[A](t: Long)(body: => A): A = { now = t; body }
  }

  def main(args: Array[String]): Unit = {
    test("self time of nested spans") {
      val c = new Clocked
      import c._
      // root [0, 100] with children [10, 30] and [40, 70]; the second
      // child has a grandchild [50, 60]
      c.tr.request {
        at(0)(tr.span("root") {
          at(10)(tr.span("a")(at(30)(())))
          at(40)(tr.span("b") { at(50)(tr.span("c")(at(60)(()))); at(70)(()) })
          at(100)(())
        })
      }
      val byName = tr.spans.map(s => s.name -> s).toMap
      check(tr.selfTimeNs(byName("root")) == 100 - 20 - 30, s"root ${tr.selfTimeNs(byName("root"))}")
      check(tr.selfTimeNs(byName("a")) == 20, "a")
      check(tr.selfTimeNs(byName("b")) == 30 - 10, s"b ${tr.selfTimeNs(byName("b"))}")
      check(tr.selfTimeNs(byName("c")) == 10, "c")
      check(byName("c").parent == byName("b").id && byName("b").parent == byName("root").id, "parents")
      check(tr.spans.map(_.request).distinct.size == 1, "one request")
      check(tr.subtree(byName("b")).toSet == Set(byName("b").id, byName("c").id), "subtree")
    }

    test("self time counts overlapping children once") {
      // children on two threads: [10, 50] and [30, 70] cover 60 of 100
      check(Tracer.selfTime((0, 100), Seq((10, 50), (30, 70))) == 40, "overlap")
      check(Tracer.selfTime((0, 100), Seq((30, 70), (10, 50), (20, 40))) == 40, "nested overlap")
      // the parts of children outside the span do not count
      check(Tracer.selfTime((0, 100), Seq((-10, 10), (90, 120))) == 80, "clipped")
      check(Tracer.selfTime((0, 100), Nil) == 100, "leaf")
    }

    test("selfMsPerRequest sums a span name within each request") {
      val c = new Clocked
      import c._
      c.tr.request { at(0)(tr.span("q")(at(1000000)(()))); at(2000000)(tr.span("q")(at(5000000)(()))) }
      c.tr.request { at(6000000)(tr.span("q")(at(8000000)(()))) }
      check(tr.selfMsPerRequest("q").sorted == Seq(2.0, 4.0), s"${tr.selfMsPerRequest("q")}")
    }

    test("a tail percentile needs ten samples beyond it") {
      check(!Stats.reportable(199, 0.95) && Stats.reportable(200, 0.95), "p95 at 200")
      check(!Stats.reportable(999, 0.99) && Stats.reportable(1000, 0.99), "p99 at 1000")
      check(!Stats.reportable(99, 0.90) && Stats.reportable(100, 0.90), "p90 at 100")
      check(Stats.samplesBeyond(200, 0.95) == 10, "beyond p95 of 200")
      val xs = (1 to 99).map(_.toDouble)
      check(Stats.describe(xs, "ms").contains("n=99") && !Stats.describe(xs, "ms").contains("p9"),
            Stats.describe(xs, "ms"))
      check(Stats.describe((1 to 100).map(_.toDouble), "ms").contains("p90"), "p90 shown")
      check(Stats.median(Seq(3.0, 1.0, 2.0, 10.0)) == 2.5, "median")
    }

    test("a failed op stays in the sample") {
      val ops = new Ops
      val (r, ms) = ops.timed[Int]("boom")(throw new IllegalStateException("x"))(_ => Nil)
      val (r2, _) = ops.timed("wrong")(41)(v => if (v == 42) Nil else Seq(s"got $v"))
      ops.verify("fine", ok = true, "")
      check(r.isEmpty && ms >= 0 && r2.contains(41), "results")
      check(ops.attempted == 3 && ops.failed == 2 && ops.errors.size == 2, s"${ops.errors}")
    }

    val spark = Main.session()
    try {
      test("pairs_compared matches a brute-force count on a small lake") {
        val lake = LakeBench.generate(LakeBench.santosLiteSmall.copy(nFamilies = 3, baseRows = 60))
        val cols = DataProfiler.profileCells(spark, lake.cells(spark)).collect().toSeq
          .map(p => (p.tableId, p.fgType))
        val brute = (for {
          i <- cols.indices; j <- cols.indices if i < j
          if cols(i)._2 == cols(j)._2 && cols(i)._1 != cols(j)._1
        } yield 1L).sum
        check(brute > 0, "no pairs")
        check(LakeDiscovery.pairsCompared(cols) == brute,
              s"formula ${LakeDiscovery.pairsCompared(cols)}, brute force $brute")
        check(LakeDiscovery.pairsCompared(Seq(("t1", "int"), ("t1", "int"), ("t2", "int"),
                                              ("t2", "str"), ("t3", "str"))) == 3, "hand count")
      }

      test("Spark work is attributed to the span that ran it") {
        val sc       = spark.sparkContext
        val counters = new SparkCounters
        sc.addSparkListener(counters)
        val tr = new Tracer(true,
          onEnter = id => sc.setJobGroup(id.toString, "test"),
          onExit = {
            case Some(p) => sc.setJobGroup(p.toString, "test")
            case None    => sc.clearJobGroup()
          })
        def job(): Long = sc.parallelize(1 to 1000, 4).map(_ * 2).count()
        def query(): Long = {
          import spark.implicits._
          (1 to 2000).toDS().groupByKey(_ % 7).count().count()
        }
        tr.request {
          tr.span("outer") { job(); tr.span("inner")(query()) }
        }
        job() // outside every span
        // the same two actions, each alone in a group of its own
        sc.setJobGroup("single-job", "test"); job(); sc.clearJobGroup()
        sc.setJobGroup("single-query", "test"); query(); sc.clearJobGroup()
        counters.awaitQuiet(sc)

        val outer = tr.spans.find(_.name == "outer").get
        val inner = tr.spans.find(_.name == "inner").get
        val single = counters.of("single-job")
        check(single.jobs == 1 && single.tasks == 4, s"single job $single")
        val o = counters.of(outer.id.toString)
        check(o.jobs == single.jobs && o.tasks == single.tasks, s"outer $o vs $single")
        val i = counters.of(inner.id.toString)
        val q = counters.of("single-query")
        check(i.jobs == q.jobs && i.tasks == q.tasks && i.shuffleBytes > 0,
              s"inner $i vs single query $q")
        val both = tr.subtree(outer).map(id => counters.of(id.toString)).reduce(_ + _)
        check(both.tasks == single.tasks + q.tasks, s"subtree $both")
      }
    } finally spark.stop()

    if (failures > 0) { println(s"$failures test(s) failed"); sys.exit(1) }
    println("all tests passed")
  }
}
