package repro

import java.util.concurrent.{CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.AtomicInteger

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (the image exports it, or derives ~75% of the cgroup
  * limit). Broadcast joins are disabled so shuffle/join papers actually
  * exercise the shuffle path at SF~=0.1; re-enable per-query if the
  * paper's contribution is the broadcast side.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  override def afterAll(): Unit = { super.afterAll() }

  /** Spark jobs started by `body`: a listener counts the jobs tagged by
    * this thread's local property, until a marker job run after `body`
    * shows that the listener bus has delivered every earlier job.
    */
  protected def sparkJobsOf(body: => Any): Int = {
    val sc      = spark.sparkContext
    val tag     = "repro.test.counted"
    val started = new AtomicInteger
    val marker  = new CountDownLatch(1)
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        Option(e.properties).map(_.getProperty(tag)).orNull match {
          case "body"   => started.incrementAndGet()
          case "marker" => marker.countDown()
          case _        =>
        }
    }
    sc.addSparkListener(listener)
    try {
      sc.setLocalProperty(tag, "body")
      body
      sc.setLocalProperty(tag, "marker")
      sc.parallelize(Seq(1), 1).count()
      assert(marker.await(60, TimeUnit.SECONDS), "the marker job never reached the listener")
      started.get
    } finally {
      sc.setLocalProperty(tag, null)
      sc.removeSparkListener(listener)
    }
  }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
