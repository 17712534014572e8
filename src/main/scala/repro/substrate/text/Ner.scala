package repro.substrate.text

/** Offline substitute for the pre-trained OntoNotes-5 NER model used by
  * the paper's fine-grained type inference (§3.2).
  *
  * The paper only needs NER at column granularity: "is this cell value a
  * named entity, and of which coarse type". A dictionary + pattern
  * recognizer over the same entity families the synthetic generators
  * draw from (persons, countries, cities, organizations, languages,
  * products, events) reproduces that behaviour deterministically with no
  * model weights.
  */
object Ner {

  val Persons: Seq[String] = Seq(
    "james", "mary", "john", "patricia", "robert", "jennifer", "michael",
    "linda", "william", "elizabeth", "david", "barbara", "richard",
    "susan", "joseph", "jessica", "thomas", "sarah", "charles", "karen",
    "christopher", "nancy", "daniel", "lisa", "matthew", "betty",
    "anthony", "margaret", "mark", "sandra", "donald", "ashley", "steven",
    "kimberly", "paul", "emily", "andrew", "donna", "joshua", "michelle",
    "kenneth", "dorothy", "kevin", "carol", "brian", "amanda", "george",
    "melissa", "edward", "deborah", "ronald", "stephanie", "timothy",
    "rebecca", "jason", "sharon", "jeffrey", "laura", "ryan", "cynthia",
    "smith", "johnson", "williams", "brown", "jones", "garcia", "miller",
    "davis", "rodriguez", "martinez", "hernandez", "lopez", "gonzalez",
    "wilson", "anderson", "taylor", "moore", "jackson", "martin", "lee",
    "perez", "thompson", "white", "harris", "sanchez", "clark", "ramirez",
  )

  val Countries: Seq[String] = Seq(
    "canada", "france", "germany", "brazil", "japan", "india", "china",
    "australia", "mexico", "italy", "spain", "portugal", "norway",
    "sweden", "denmark", "finland", "poland", "austria", "belgium",
    "netherlands", "switzerland", "ireland", "greece", "turkey", "egypt",
    "nigeria", "kenya", "morocco", "argentina", "chile", "peru",
    "colombia", "vietnam", "thailand", "indonesia", "malaysia",
    "singapore", "philippines", "korea", "russia", "ukraine", "romania",
    "hungary", "czechia", "croatia", "serbia", "iceland", "cuba",
  )

  val Cities: Seq[String] = Seq(
    "montreal", "toronto", "vancouver", "paris", "berlin", "tokyo",
    "osaka", "mumbai", "delhi", "beijing", "shanghai", "sydney",
    "melbourne", "madrid", "barcelona", "rome", "milan", "lisbon",
    "oslo", "stockholm", "copenhagen", "helsinki", "warsaw", "vienna",
    "brussels", "amsterdam", "zurich", "dublin", "athens", "istanbul",
    "cairo", "lagos", "nairobi", "casablanca", "santiago", "lima",
    "bogota", "hanoi", "bangkok", "jakarta", "seoul", "moscow", "kyiv",
  )

  val Orgs: Seq[String] = Seq(
    "acme", "globex", "initech", "umbrella", "cyberdyne", "hooli",
    "wonka", "stark", "wayne", "oscorp", "tyrell", "weyland", "aperture",
    "vandelay", "dunder", "mifflin", "sterling", "cooper", "pied",
    "piper", "massive", "dynamic", "soylent", "virtucon", "zorg",
    "monarch", "octan", "gekko", "nakatomi", "ingen",
  )

  val Languages: Seq[String] = Seq(
    "english", "french", "german", "spanish", "portuguese", "italian",
    "japanese", "mandarin", "hindi", "arabic", "russian", "korean",
    "dutch", "swedish", "polish", "turkish", "greek", "hebrew",
    "vietnamese", "thai",
  )

  val Products: Seq[String] = Seq(
    "thunderbolt", "aurora", "nimbus", "quasar", "zephyr", "falcon",
    "raptor", "titan", "atlas", "nova", "pulsar", "vortex", "mirage",
    "horizon", "eclipse", "meteor", "comet", "blaze", "frost", "ember",
  )

  val Events: Seq[String] = Seq(
    "olympics", "worldcup", "superbowl", "oktoberfest", "carnival",
    "marathon", "expo", "summit", "festival", "gala",
  )

  private val dict: Map[String, String] = (
    Persons.map(_ -> "PERSON") ++
      Countries.map(_ -> "GPE_COUNTRY") ++
      Cities.map(_ -> "GPE_CITY") ++
      Orgs.map(_ -> "ORG") ++
      Languages.map(_ -> "LANGUAGE") ++
      Products.map(_ -> "PRODUCT") ++
      Events.map(_ -> "EVENT")
  ).toMap

  /** Entity family of a single token, if any. */
  def tokenType(token: String): Option[String] = dict.get(token.toLowerCase)

  /** Classify a full cell value: it is an entity when at least half of
    * its alphabetic tokens are dictionary entities (majority family
    * wins). Mirrors running a token-level NER tagger over the value.
    */
  def entityType(value: String): Option[String] = {
    val toks = Tokenizer.tokenize(value)
    if (toks.isEmpty) return None
    val hits = toks.flatMap(tokenType)
    if (hits.size * 2 >= toks.size && hits.nonEmpty)
      Some(hits.groupBy(identity).maxBy { case (t, g) => (g.size, t) }._1)
    else None
  }

  /** Whether a cell value is recognized as a named entity. */
  def isEntity(value: String): Boolean = entityType(value).isDefined
}
