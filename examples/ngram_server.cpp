// ngram_server: interactive query server over a serving directory built
// with `ngram_tool build-serving`. Reads one command per line on stdin and
// answers on stdout — the minimal front end for the sharded serving layer
// (pipe queries in for scripting, or run it interactively).
//
//   $ ngram_tool build-serving corpus.ngs serving/ --shards=4
//   $ ngram_server serving/ [--cache-kb=N] [--order=N]
//
// Protocol (term ids are the corpus encoding's integer ids):
//   count <t1> [t2 ...]      frequency of the n-gram
//   topk <k> [t1 t2 ...]     top-k one-term completions of the prefix
//   ppl <t1> [t2 ...]        stupid-backoff perplexity of the sentence
//   stats                    store + block-cache counters
//   reload                   re-open the directory, atomically swap
//   quit                     exit
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cli_numbers.h"
#include "serve/stats_service.h"

namespace {

using namespace ngram;

int Usage() {
  fprintf(stderr,
          "usage: ngram_server <serving_dir> [--cache-kb=N] [--order=N]\n");
  return 2;
}

bool ParseTerms(std::istringstream* in, TermSequence* terms) {
  terms->clear();
  long long value = 0;
  while (*in >> value) {
    if (value <= 0) {
      return false;  // Term ids are positive; 0 is reserved.
    }
    terms->push_back(static_cast<TermId>(value));
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  const std::string dir = argv[1];
  serve::ServingOptions options;
  lm::LanguageModelOptions lm_options;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--cache-kb=", 0) == 0) {
      if (!cli::ParseKib(arg.substr(11), &options.cache_bytes)) {
        return Usage();
      }
    } else if (arg.rfind("--order=", 0) == 0) {
      if (!cli::ParseCount(arg.substr(8), &lm_options.order)) {
        return Usage();
      }
    } else {
      return Usage();
    }
  }

  auto service = serve::StatsService::Open(dir, options, lm_options);
  if (!service.ok()) {
    fprintf(stderr, "%s\n", service.status().ToString().c_str());
    return 1;
  }
  {
    const auto store = (*service)->store();
    printf("serving %llu n-grams from %zu shard(s) in %s\n",
           static_cast<unsigned long long>(store->total_records()),
           store->num_shards(), dir.c_str());
  }

  std::string line;
  TermSequence terms;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string command;
    if (!(in >> command) || command[0] == '#') {
      continue;
    }
    if (command == "quit" || command == "exit") {
      break;
    }
    if (command == "count") {
      if (!ParseTerms(&in, &terms) || terms.empty()) {
        printf("error: count needs positive term ids\n");
        continue;
      }
      auto count = (*service)->Count(terms);
      if (!count.ok()) {
        printf("error: %s\n", count.status().ToString().c_str());
        continue;
      }
      printf("count %s = %llu\n", SequenceToDebugString(terms).c_str(),
             static_cast<unsigned long long>(*count));
    } else if (command == "topk") {
      long long k = 0;
      if (!(in >> k) || k <= 0 || !ParseTerms(&in, &terms)) {
        printf("error: topk needs k >= 1 then prefix term ids\n");
        continue;
      }
      auto completions =
          (*service)->TopKCompletions(terms, static_cast<size_t>(k));
      if (!completions.ok()) {
        printf("error: %s\n", completions.status().ToString().c_str());
        continue;
      }
      printf("topk %s:", SequenceToDebugString(terms).c_str());
      for (const auto& c : *completions) {
        printf(" %u=%llu", c.term, static_cast<unsigned long long>(c.count));
      }
      printf("\n");
    } else if (command == "ppl") {
      if (!ParseTerms(&in, &terms) || terms.empty()) {
        printf("error: ppl needs positive term ids\n");
        continue;
      }
      auto ppl = (*service)->SentencePerplexity(terms);
      if (!ppl.ok()) {
        printf("error: %s\n", ppl.status().ToString().c_str());
        continue;
      }
      printf("ppl %s = %.4f\n", SequenceToDebugString(terms).c_str(), *ppl);
    } else if (command == "stats") {
      const auto store = (*service)->store();
      const kv::BlockCacheStats cache = (*service)->CacheStats();
      printf("stats: records=%llu shards=%zu cache_hits=%llu "
             "cache_misses=%llu cache_evictions=%llu cache_bytes=%zu "
             "hit_ratio=%.3f\n",
             static_cast<unsigned long long>(store->total_records()),
             store->num_shards(),
             static_cast<unsigned long long>(cache.hits),
             static_cast<unsigned long long>(cache.misses),
             static_cast<unsigned long long>(cache.evictions),
             cache.charged_bytes, cache.hit_ratio());
    } else if (command == "reload") {
      Status st = (*service)->Reload();
      if (!st.ok()) {
        printf("error: %s\n", st.ToString().c_str());
        continue;
      }
      printf("reloaded %s\n", dir.c_str());
    } else {
      printf("error: unknown command '%s' (count|topk|ppl|stats|reload|"
             "quit)\n",
             command.c_str());
    }
    fflush(stdout);
  }
  return 0;
}
